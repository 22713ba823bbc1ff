//go:build !race

package banks

const raceEnabled = false
