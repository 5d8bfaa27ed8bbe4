//go:build race

package exec_test

// raceEnabled reports a race-detector build, whose runtime allocates on
// its own behalf and so makes allocation counts inexact.
const raceEnabled = true
