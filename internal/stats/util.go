package stats

// Max64 returns the larger of a and b. It exists so the cmd/ front ends
// share one copy instead of redefining it per main package.
func Max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
