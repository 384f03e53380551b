// Package uktime is the TIME component of the Unikraft deployments
// (Figures 5 and 8): monotonic and wall-clock time derived from the
// simulator's virtual cycle clock, plus a coarse tick counter used by the
// TCP stack and the database engine for timeouts and timestamps.
package uktime

import (
	"cubicleos/internal/cubicle"
	"cubicleos/internal/cycles"
)

// Name of the component in deployments.
const Name = "TIME"

// wallEpochNs anchors the virtual wall clock (2021-04-19, the ASPLOS'21
// conference date, chosen arbitrarily but deterministically).
const wallEpochNs = 1618790400_000000000

// Module is the time component: a thin shim over the virtual clock.
type Module struct {
	clock *cycles.Clock
}

// New creates the time module reading the given clock.
func New(clock *cycles.Clock) *Module { return &Module{clock: clock} }

// MonotonicNs returns nanoseconds since boot on the virtual clock.
func (t *Module) MonotonicNs() uint64 {
	return uint64(cycles.Duration(t.clock.Cycles()).Nanoseconds())
}

// Component returns the TIME component for the builder.
func (t *Module) Component() *cubicle.Component {
	return &cubicle.Component{
		Name: Name,
		Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{
			{Name: "time_monotonic_ns", Fn: func(e *cubicle.Env, args []uint64) []uint64 {
				e.Work(40) // clocksource read
				return e.Ret(t.MonotonicNs())
			}},
			{Name: "time_wall_ns", Fn: func(e *cubicle.Env, args []uint64) []uint64 {
				e.Work(40)
				return e.Ret(wallEpochNs + t.MonotonicNs())
			}},
		},
	}
}

// Client is typed access to TIME from another cubicle.
type Client struct {
	mono, wall cubicle.Handle
}

// NewClient resolves TIME's entry points for a caller cubicle.
func NewClient(m *cubicle.Monitor, caller cubicle.ID) *Client {
	return &Client{
		mono: m.MustResolve(caller, Name, "time_monotonic_ns"),
		wall: m.MustResolve(caller, Name, "time_wall_ns"),
	}
}

// MonotonicNs reads the monotonic clock via a cross-cubicle call.
func (c *Client) MonotonicNs(e *cubicle.Env) uint64 { return c.mono.Call(e)[0] }

// WallNs reads the wall clock via a cross-cubicle call.
func (c *Client) WallNs(e *cubicle.Env) uint64 { return c.wall.Call(e)[0] }
