// Power-demand scenario: the paper's univariate evaluation end to end,
// including a per-hardness breakdown of which HEC layer each scheme
// resolves each anomaly grade at — for Our Method, the behaviour the
// contextual bandit is supposed to learn (easy anomalies stay on-device,
// subtle ones go up).
package main

import (
	"context"
	"log"
	"os"

	"repro"
)

func main() {
	res, err := repro.Study{
		Kinds: []repro.Kind{repro.Univariate},
		Options: []repro.Option{repro.WithFast(),
			// A denser test year makes the routing statistics readable.
			repro.WithUnivariate(func(opt *repro.UnivariateOptions) {
				opt.Data.TestWeeks = 104
				opt.Data.PolicyWeeks = 104
			})},
	}.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if err := res.WriteTableII(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if err := res.WriteHardness(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
