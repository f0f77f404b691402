//go:build !race

package graph

// raceEnabled lets the XXL dataset test skip its reference builds, which
// take over a minute under the race detector and exercise no concurrency.
const raceEnabled = false
