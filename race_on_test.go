//go:build race

package activerbac

// raceEnabled reports a -race build, where sync.Pool drops items at
// random and allocation counts stop being deterministic.
const raceEnabled = true
