//go:build race

package correlate

// raceEnabled reports a -race build, whose sync.Pool drops items at random
// and so makes allocation counts meaningless.
const raceEnabled = true
