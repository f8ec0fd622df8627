//go:build race

package spin_test

func init() { raceEnabled = true }
