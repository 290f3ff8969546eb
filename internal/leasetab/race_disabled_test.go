//go:build !race

package leasetab

const raceEnabled = false
