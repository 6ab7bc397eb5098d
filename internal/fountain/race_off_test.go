//go:build !race

package fountain

const raceEnabled = false
