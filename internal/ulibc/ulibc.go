// Package ulibc is the shared LIBC cubicle (the paper's newlibc
// equivalent): string and memory helpers that contain little state and are
// frequently used by every component. As a shared cubicle its code
// executes with the privileges, stack and heap of the calling cubicle
// (§3 ❹) — calls into it never involve the CubicleOS TCB.
package ulibc

import (
	"bytes"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/vm"
)

// Component name as it appears in deployments.
const Name = "LIBC"

// Component returns the LIBC component for the builder.
func Component() *cubicle.Component {
	return &cubicle.Component{
		Name: Name,
		Kind: cubicle.KindShared,
		Exports: []cubicle.ExportDecl{
			{Name: "memcpy", RegArgs: 3, Fn: memcpy},
			{Name: "memset", RegArgs: 3, Fn: memset},
			{Name: "memcmp", RegArgs: 3, Fn: memcmp},
			{Name: "strlen", RegArgs: 1, Fn: strlen},
			{Name: "strncmp", RegArgs: 3, Fn: strncmp},
		},
	}
}

// memcpy(dst, src, n) copies n bytes and returns dst.
func memcpy(e *cubicle.Env, args []uint64) []uint64 {
	cubicle.GuardArgs(e, "memcpy", args, 3)
	e.Memcpy(vm.Addr(args[0]), vm.Addr(args[1]), args[2])
	return e.Ret(args[0])
}

// memset(dst, c, n) fills n bytes with c and returns dst.
func memset(e *cubicle.Env, args []uint64) []uint64 {
	cubicle.GuardArgs(e, "memset", args, 3)
	e.Memset(vm.Addr(args[0]), byte(args[1]), args[2])
	return e.Ret(args[0])
}

// memcmp(a, b, n) returns 0/1/^0 like C memcmp (sign as two's complement
// in a uint64). It compares paired zero-copy views page chunk by page
// chunk instead of materialising both ranges.
func memcmp(e *cubicle.Env, args []uint64) []uint64 {
	cubicle.GuardArgs(e, "memcmp", args, 3)
	a, b, n := vm.Addr(args[0]), vm.Addr(args[1]), args[2]
	r := 0
	// No early exit on a difference: C memcmp may stop, but the legacy
	// implementation access-checked both full ranges, and keeping that
	// behaviour keeps the trap accounting identical.
	for done := uint64(0); done < n; {
		k := chunkLen(a.Add(done), b.Add(done), n-done)
		e.View(a.Add(done), k, func(_ uint64, ca []byte) {
			e.View(b.Add(done), k, func(_ uint64, cb []byte) {
				if r == 0 {
					r = bytes.Compare(ca, cb)
				}
			})
		})
		done += k
	}
	switch {
	case r < 0:
		return e.Ret(^uint64(0))
	case r > 0:
		return e.Ret(1)
	}
	return e.Ret(0)
}

// chunkLen clamps n so that [a, a+n) and [b, b+n) each stay on one page.
func chunkLen(a, b vm.Addr, n uint64) uint64 {
	if r := vm.PageSize - a.PageOff(); n > r {
		n = r
	}
	if r := vm.PageSize - b.PageOff(); n > r {
		n = r
	}
	return n
}

// strlen(p) returns the length of the NUL-terminated string at p. The scan
// runs a page-sized zero-copy view at a time — access checks are
// page-granular, so it touches exactly the pages the byte-wise scan would.
func strlen(e *cubicle.Env, args []uint64) []uint64 {
	cubicle.GuardArgs(e, "strlen", args, 1)
	addr := vm.Addr(args[0])
	var n uint64
	for {
		a := addr.Add(n)
		k := vm.PageSize - a.PageOff()
		found := -1
		e.View(a, k, func(_ uint64, chunk []byte) {
			found = bytes.IndexByte(chunk, 0)
		})
		if found >= 0 {
			return e.Ret(n + uint64(found))
		}
		n += k
	}
}

// strncmp(a, b, n) compares at most n bytes of two NUL-terminated strings,
// chunked over paired views like memcmp.
func strncmp(e *cubicle.Env, args []uint64) []uint64 {
	cubicle.GuardArgs(e, "strncmp", args, 3)
	a, b := vm.Addr(args[0]), vm.Addr(args[1])
	r := 0
	for done := uint64(0); done < args[2] && r == 0; {
		k := chunkLen(a.Add(done), b.Add(done), args[2]-done)
		stop := false
		e.View(a.Add(done), k, func(_ uint64, ca []byte) {
			e.View(b.Add(done), k, func(_ uint64, cb []byte) {
				for i := range ca {
					if ca[i] != cb[i] {
						if ca[i] < cb[i] {
							r = -1
						} else {
							r = 1
						}
						return
					}
					if ca[i] == 0 {
						stop = true
						return
					}
				}
			})
		})
		if stop {
			break
		}
		done += k
	}
	switch {
	case r < 0:
		return e.Ret(^uint64(0))
	case r > 0:
		return e.Ret(1)
	}
	return e.Ret(0)
}

// Client provides typed access to LIBC from another component.
type Client struct {
	memcpy, memset, memcmp cubicle.Handle
}

// NewClient resolves LIBC's entry points for the given caller cubicle.
func NewClient(m *cubicle.Monitor, caller cubicle.ID) *Client {
	return &Client{
		memcpy: m.MustResolve(caller, Name, "memcpy"),
		memset: m.MustResolve(caller, Name, "memset"),
		memcmp: m.MustResolve(caller, Name, "memcmp"),
	}
}

// Memcpy calls LIBC memcpy.
func (c *Client) Memcpy(e *cubicle.Env, dst, src vm.Addr, n uint64) {
	c.memcpy.Call(e, uint64(dst), uint64(src), n)
}

// Memset calls LIBC memset.
func (c *Client) Memset(e *cubicle.Env, dst vm.Addr, v byte, n uint64) {
	c.memset.Call(e, uint64(dst), uint64(v), n)
}

// Memcmp calls LIBC memcmp; returns -1, 0 or 1.
func (c *Client) Memcmp(e *cubicle.Env, a, b vm.Addr, n uint64) int {
	r := c.memcmp.Call(e, uint64(a), uint64(b), n)[0]
	switch r {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return -1
	}
}
