//go:build race

package tlb

func init() { raceEnabled = true }
