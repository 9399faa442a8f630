package core

// Rollbacks reports how many Resets of s rolled back to its warm set
// instead of clearing; 0 for a nil System.
func Rollbacks(s *System) uint64 {
	if s == nil {
		return 0
	}
	return s.rollbacks
}
