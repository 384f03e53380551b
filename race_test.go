//go:build race

package cubicleos_test

// The boot's allocation gate leans on escape analysis and inlining that
// race instrumentation changes; it runs in the plain `go test ./...`.
func init() { raceBuild = true }
