//go:build race

package policy

// raceEnabled reports a -race build, whose sync.Pool drops items at random.
const raceEnabled = true
