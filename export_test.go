package waitornot

import "time"

// PolicyReady exposes the engine policy a Policy lowers to, for the
// external policy truth-table test.
func PolicyReady(p Policy, received, expected int, elapsed time.Duration) bool {
	return p.internal().Ready(received, expected, elapsed)
}
