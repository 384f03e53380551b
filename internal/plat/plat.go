// Package plat is the PLAT component: the platform glue of the Unikraft
// deployments (Figures 5 and 8) — console output, boot bookkeeping, and
// the halt hook. On real Unikraft this is the KVM/linuxu platform layer;
// here it fronts the simulator's host.
package plat

import (
	"cubicleos/internal/cubicle"
	"cubicleos/internal/vm"
)

// Name of the component in deployments.
const Name = "PLAT"

// consoleWork models the per-call cost of the console output path.
const consoleWork = 150

// consoleKeep is the console scrollback: the module keeps at least the
// last consoleKeep bytes written and at most twice that. A server writes
// an access-log line per request, so an unbounded console grows the host
// process by ~50 B a request for as long as it runs.
const consoleKeep = 64 << 10

// Module is the PLAT component state.
type Module struct {
	console []byte
	halted  bool
	bootMsg string
}

// New creates the platform module.
func New() *Module { return &Module{} }

// ConsoleOutput returns the console scrollback: everything written so far,
// or its tail of consoleKeep to 2×consoleKeep bytes once more was written.
func (p *Module) ConsoleOutput() string { return string(p.console) }

// Halted reports whether plat_halt was called: the state Client.Halt
// sets, kept with it as part of the component ABI (ROADMAP item 15).
func (p *Module) Halted() bool { return p.halted }

// Component returns the PLAT component for the builder.
func (p *Module) Component() *cubicle.Component {
	return &cubicle.Component{
		Name: Name,
		Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{
			{Name: "console_write", RegArgs: 2, Fn: func(e *cubicle.Env, args []uint64) []uint64 {
				e.Work(consoleWork)
				e.View(vm.Addr(args[0]), args[1], func(_ uint64, chunk []byte) {
					p.console = append(p.console, chunk...)
				})
				if len(p.console) > 2*consoleKeep {
					p.console = p.console[:copy(p.console, p.console[len(p.console)-consoleKeep:])]
				}
				return e.Ret(args[1])
			}},
			{Name: "plat_halt", Fn: func(e *cubicle.Env, args []uint64) []uint64 {
				p.halted = true
				return nil
			}},
			{Name: "plat_boot_probe", Fn: func(e *cubicle.Env, args []uint64) []uint64 {
				// Boot-time platform probe (one call per boot, visible in
				// the Figure 8 call counts as the BOOT edge).
				e.Work(500)
				return e.Ret(1)
			}},
		},
	}
}

// Client is typed access to PLAT from another cubicle.
type Client struct {
	write, halt, probe cubicle.Handle
}

// NewClient resolves PLAT's entry points for a caller cubicle.
func NewClient(m *cubicle.Monitor, caller cubicle.ID) *Client {
	return &Client{
		write: m.MustResolve(caller, Name, "console_write"),
		halt:  m.MustResolve(caller, Name, "plat_halt"),
		probe: m.MustResolve(caller, Name, "plat_boot_probe"),
	}
}

// ConsoleWrite writes n bytes at addr to the console.
func (c *Client) ConsoleWrite(e *cubicle.Env, addr vm.Addr, n uint64) {
	c.write.Call(e, uint64(addr), n)
}

// Halt stops the platform. No run calls it; it stays with the handle
// NewClient resolves at boot, part of the component ABI (ROADMAP item 15).
func (c *Client) Halt(e *cubicle.Env) { c.halt.Call(e) }

// BootProbe performs the boot-time platform probe.
func (c *Client) BootProbe(e *cubicle.Env) { c.probe.Call(e) }
