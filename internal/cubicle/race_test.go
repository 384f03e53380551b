//go:build race

package cubicle

// The tracing-overhead gate times the crossing, which race instrumentation
// slows on both sides unequally; it runs in the plain `go test ./...`.
func init() { raceBuild = true }
