//go:build race

package siege

// The exact allocation gates lean on escape analysis and inlining that
// race instrumentation changes; they run in the plain `go test ./...`.
func init() { raceBuild = true }
