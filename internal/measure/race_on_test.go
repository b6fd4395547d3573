//go:build race

package measure

// raceEnabled skips the allocation budget: the race detector allocates
// on its own.
const raceEnabled = true
