//go:build race

package backend_test

func init() { raceEnabled = true }
