//go:build race

package seq2seq

const raceEnabled = true
