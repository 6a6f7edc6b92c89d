//go:build race

package main

// raceEnabled reports a -race build, whose instrumentation slows the pcap
// decoder below the live workload's offered rate.
const raceEnabled = true
