//go:build !race

package rnn

const raceEnabled = false
