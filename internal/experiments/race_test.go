//go:build race

package experiments

// The allocation gate of a speedtest pass leans on escape analysis and
// inlining that race instrumentation changes; it runs in the plain
// `go test ./...`.
func init() { raceBuild = true }
