//go:build !race

package activerbac

const raceEnabled = false
