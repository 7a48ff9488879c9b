// MHEALTH scenario: the paper's multivariate evaluation — 18-channel
// body-sensor windows, the LSTM-seq2seq suite, and a per-hardness
// detection breakdown (each activity is graded by its similarity to the
// walking gait).
package main

import (
	"context"
	"log"
	"os"

	"repro"
)

func main() {
	// The fast profile keeps pure-Go BPTT to a few seconds; drop WithFast
	// (or raise Subjects/Epochs via WithMultivariate) for the full-scale
	// run.
	res, err := repro.Study{
		Kinds:   []repro.Kind{repro.Multivariate},
		Options: []repro.Option{repro.WithFast()},
	}.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if err := res.WriteTableI(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if err := res.WriteTableII(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if err := res.WriteHardness(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
