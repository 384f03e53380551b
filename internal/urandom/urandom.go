// Package urandom is the shared random-device cubicle mentioned in the
// paper's NGINX deployment ("Shared cubicles ... are comprised of newlibc
// and the random device driver"). It is a deterministic xorshift PRNG so
// that experiments are reproducible.
package urandom

import (
	"cubicleos/internal/cubicle"
	"cubicleos/internal/vm"
)

// Name of the component in deployments.
const Name = "RANDOM"

// Device is the PRNG state. It lives in trusted bookkeeping (device
// registers); the data it produces is written into caller-provided
// buffers under the caller's privileges, as a shared cubicle.
type Device struct {
	state uint64
}

// New returns a device seeded deterministically.
func New(seed uint64) *Device {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Device{state: seed}
}

// next advances the xorshift64* generator.
func (d *Device) next() uint64 {
	x := d.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	d.state = x
	return x * 0x2545F4914F6CDD1D
}

// Component returns the RANDOM component for the builder.
func (d *Device) Component() *cubicle.Component {
	return &cubicle.Component{
		Name: Name,
		Kind: cubicle.KindShared,
		Exports: []cubicle.ExportDecl{
			{Name: "rand_u64", Fn: func(e *cubicle.Env, args []uint64) []uint64 {
				return e.Ret(d.next())
			}},
			{Name: "rand_fill", RegArgs: 2, Fn: func(e *cubicle.Env, args []uint64) []uint64 {
				addr, n := vm.Addr(args[0]), args[1]
				buf := make([]byte, n)
				for i := uint64(0); i < n; i += 8 {
					v := d.next()
					for j := uint64(0); j < 8 && i+j < n; j++ {
						buf[i+j] = byte(v >> (8 * j))
					}
				}
				e.Write(addr, buf)
				return nil
			}},
		},
	}
}

// Client is typed access to the random device.
type Client struct {
	u64, fill cubicle.Handle
}

// NewClient resolves the device for a caller cubicle.
func NewClient(m *cubicle.Monitor, caller cubicle.ID) *Client {
	return &Client{
		u64:  m.MustResolve(caller, Name, "rand_u64"),
		fill: m.MustResolve(caller, Name, "rand_fill"),
	}
}

// U64 returns the next pseudo-random value.
func (c *Client) U64(e *cubicle.Env) uint64 { return c.u64.Call(e)[0] }

// Fill fills n bytes at addr with pseudo-random data.
func (c *Client) Fill(e *cubicle.Env, addr vm.Addr, n uint64) {
	c.fill.Call(e, uint64(addr), n)
}
