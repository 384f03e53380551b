package cubicle

import (
	"fmt"

	"cubicleos/internal/isa"
	"cubicleos/internal/vm"
)

// Loader is the trusted cubicle loader of §4/§5.4. Code can only enter
// the system through it: it scans code pages for instructions that would
// affect the integrity of the isolation mechanisms, maps code pages
// execute-only and data pages read(-write), populates the per-cubicle page
// metadata, verifies builder signatures, and installs the cross-cubicle
// call trampolines for every public symbol.
type Loader struct {
	m *Monitor
}

// NewLoader returns a loader bound to the monitor.
func NewLoader(m *Monitor) *Loader { return &Loader{m: m} }

// LoadError reports why the loader refused a component.
type LoadError struct {
	Component string
	Reason    string
}

func (e *LoadError) Error() string {
	return fmt.Sprintf("loader: refusing component %q: %s", e.Component, e.Reason)
}

// LoadSystem loads every component of the system image. groups optionally
// fuses components into one cubicle (component name -> group name): the
// deployment knob behind the paper's CubicleOS-3 vs CubicleOS-4
// configurations (Figure 9). Components fused into a group must agree on
// their kind. Returns the cubicle hosting each component.
func (ld *Loader) LoadSystem(si *SystemImage, groups map[string]string) (map[string]*Cubicle, error) {
	out := make(map[string]*Cubicle, len(si.Components))
	for _, c := range si.Components {
		cub, err := ld.Load(si, c, groups[c.Name])
		if err != nil {
			return nil, err
		}
		out[c.Name] = cub
	}
	return out, nil
}

// Load loads one component into the cubicle named group (defaulting to
// the component's own name), creating the cubicle if needed.
func (ld *Loader) Load(si *SystemImage, c *Component, group string) (*Cubicle, error) {
	m := ld.m
	if group == "" {
		group = c.Name
	}
	if _, dup := m.compOf[c.Name]; dup {
		return nil, &LoadError{Component: c.Name, Reason: "already loaded"}
	}
	if c.Image == nil {
		return nil, &LoadError{Component: c.Name, Reason: "no object image (not built)"}
	}

	// §5.4: scan code pages for binary sequences containing system call
	// or wrpkru instructions before making the pages executable, and
	// refuse to load the code if any such sequence is found. Every code
	// section is scanned, on every load, before any page is mapped: no
	// byte executes uninspected (ERIM's rule), shared image or not.
	for _, sec := range c.Image.Sections {
		if sec.Kind != isa.SecCode {
			continue
		}
		if hits := isa.Scan(sec.Data); len(hits) > 0 {
			return nil, &LoadError{Component: c.Name,
				Reason: fmt.Sprintf("code section contains %s", hits[0])}
		}
	}

	cub := m.byName[group]
	if cub == nil {
		var err error
		cub, err = m.addCubicle(group, c.Kind)
		if err != nil {
			return nil, &LoadError{Component: c.Name, Reason: err.Error()}
		}
	} else if cub.Kind != c.Kind {
		return nil, &LoadError{Component: c.Name,
			Reason: fmt.Sprintf("group %q is %v but component is %v", group, cub.Kind, c.Kind)}
	}

	// Map the image sections. Rule 1 of §5.4: code pages get execute-only
	// permissions, data pages read or read-write as specified by the
	// binary; cubicles can never change execution permissions.
	for _, sec := range c.Image.Sections {
		if len(sec.Data) == 0 {
			continue
		}
		var perm vm.Perm
		var typ vm.PageType
		switch sec.Kind {
		case isa.SecCode:
			perm, typ = vm.PermExec, vm.PageCode
		case isa.SecRodata:
			perm, typ = vm.PermRead, vm.PageGlobal
		case isa.SecData:
			perm, typ = vm.PermRead|vm.PermWrite, vm.PageGlobal
		default:
			return nil, &LoadError{Component: c.Name, Reason: fmt.Sprintf("unknown section kind %v", sec.Kind)}
		}
		pages := vm.PagesFor(uint64(len(sec.Data)))
		addr := m.MapOwned(cub.ID, pages, typ, perm)
		// The loader writes the section bytes with monitor privileges
		// (before permissions take effect, as mmap+mprotect would). The
		// sections of a default image come as process-wide read-only
		// frames: every boot's pages read the same ones, and a write
		// copies the page first.
		frames := sec.Frames()
		for i, pn := 0, addr.PageNum(); i < pages; i++ {
			pg := m.AS.Page(vm.PageAddr(pn + uint64(i)))
			if frames != nil {
				m.AS.Share(pg, frames[i])
				continue
			}
			lo := i * vm.PageSize
			copy(m.AS.Writable(pg)[:], sec.Data[lo:min(lo+vm.PageSize, len(sec.Data))])
		}
	}

	// Install trampolines for each public symbol after verifying the
	// builder's signature on the descriptor (the trampoline is
	// security-sensitive and "must be generated and signed by the
	// trusted builder", §5.2).
	for _, ex := range c.Exports {
		if !si.verify(c.Name, ex.Name, ex.RegArgs, ex.StackBytes) {
			return nil, &LoadError{Component: c.Name,
				Reason: fmt.Sprintf("trampoline descriptor for %q has a missing or invalid builder signature", ex.Name)}
		}
		if _, dup := cub.exports[ex.Name]; dup {
			return nil, &LoadError{Component: c.Name,
				Reason: fmt.Sprintf("symbol %q already exported by cubicle %q", ex.Name, group)}
		}
		tr := &Trampoline{
			id:         uint32(len(m.trampolines) + 1),
			callee:     cub.ID,
			cub:        cub,
			sym:        ex.Name,
			symbol:     c.Name + "." + ex.Name,
			regArgs:    ex.RegArgs,
			stackBytes: ex.StackBytes,
		}
		tr.fn = ld.wrapEntry(cub, ex.Fn, tr.symbol)
		// The trampoline code thunk lives in the monitor's cubicle
		// (§5.5); cubicles reach it only through guard pages.
		tr.thunkAddr = m.MapOwned(MonitorID, 1, vm.PageCode, vm.PermExec)
		m.AS.Share(m.AS.Page(tr.thunkAddr), isa.GuardPage(tr.id)) // thunk body placeholder bytes
		m.guardPages[tr.thunkAddr.PageNum()] = guardInfo{tramp: tr, caller: MonitorID, isThunk: true}
		m.trampolines = append(m.trampolines, tr)
		cub.exports[ex.Name] = tr
	}

	cub.components = append(cub.components, c.Name)
	m.compOf[c.Name] = cub
	if c.OnRestart != nil {
		m.restartHooks[cub.ID] = append(m.restartHooks[cub.ID], c.OnRestart)
	}
	if c.Snapshot != nil && c.Restore == nil {
		return nil, &LoadError{Component: c.Name, Reason: "Snapshot without Restore"}
	}
	// Snapshot/Restore hooks are registered in load order, which is the
	// (deterministic) order checkpoints serialise and restores replay them.
	m.snapHooks[cub.ID] = append(m.snapHooks[cub.ID], snapHook{
		name: c.Name, snap: c.Snapshot, restore: c.Restore,
	})
	return cub, nil
}

// wrapEntry adds the callee-side CFI prologue: component functions may
// only ever run with their own cubicle's privileges (or, for shared
// cubicles, any caller's). Reaching the function body without the
// trampoline having switched cubicles means control flow bypassed the
// intended entry sequence.
func (ld *Loader) wrapEntry(cub *Cubicle, fn Fn, sym string) Fn {
	if cub.Kind == KindShared {
		return fn
	}
	return func(e *Env, args []uint64) []uint64 {
		if e.T.cur != cub.ID {
			panic(&CFIFault{Cubicle: e.T.cur, Target: sym,
				Reason: "entry reached without a cubicle switch (trampoline bypassed)"})
		}
		return fn(e, args)
	}
}

// Trampolines returns all installed trampolines (inspector/tests).
func (m *Monitor) Trampolines() []*Trampoline {
	out := make([]*Trampoline, len(m.trampolines))
	copy(out, m.trampolines)
	return out
}
