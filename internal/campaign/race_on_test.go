//go:build race

package campaign

// raceEnabled reports a -race build, whose instrumented engines run the
// outcome pin too slowly for the package's test timeout.
const raceEnabled = true
