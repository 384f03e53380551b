//go:build race

package cluster

// The exact allocation gate leans on escape analysis and inlining that
// race instrumentation changes; it runs in the plain `go test ./...`.
func init() { raceBuild = true }
