package prm

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
)

// Built-in trigger actions, the firmware analogues of the paper's
// trigger-handler scripts (Figure 6, Example 2). Operators can register
// more with RegisterAction.
const (
	// ActionLogOnly does nothing: the firing's trigger_fired journal
	// event, which /log/triggers.log renders, is its only trace.
	ActionLogOnly = "log_only"
	// ActionLLCGrowToHalf dedicates half the LLC ways to the firing
	// LDom and packs every other LDom into the remaining half — the
	// paper's "LLC.MissRate > 30% => increase LLC capacity up to 50%"
	// handler (§7.1.2).
	ActionLLCGrowToHalf = "llc_grow_to_half"
	// ActionMemRaisePriority moves the firing LDom into the
	// high-priority memory queue.
	ActionMemRaisePriority = "mem_raise_priority"
	// ActionQuarantine contains a misbehaving LDom: its memory priority
	// drops to the lowest queue and its LLC allocation shrinks to one
	// way. Pair it with a violations trigger for the paper's "security
	// policy" open problem.
	ActionQuarantine = "quarantine"
)

func registerBuiltinActions(fw *Firmware) {
	fw.RegisterAction(ActionLogOnly, func(fw *Firmware, n core.Notification) error {
		return nil
	})
	fw.RegisterAction(ActionLLCGrowToHalf, actionLLCGrowToHalf)
	fw.RegisterAction(ActionMemRaisePriority, actionMemRaisePriority)
	fw.RegisterAction(ActionQuarantine, actionQuarantine)
}

// actionQuarantine demotes the offending LDom on both the memory and
// cache planes.
func actionQuarantine(fw *Firmware, n core.Notification) error {
	if memIdx, _, err := fw.mountByType(core.PlaneTypeMemory); err == nil {
		path := fmt.Sprintf("/sys/cpa/cpa%d/ldoms/ldom%d/parameters/priority", memIdx, n.DSID)
		if fw.fs.Exists(path) {
			if err := fw.fs.WriteFile(path, "0"); err != nil {
				return err
			}
		}
	}
	if cacheIdx, _, err := fw.mountByType(core.PlaneTypeCache); err == nil {
		if err := fw.echoMask(cacheIdx, n.DSID, 0x1); err != nil {
			return err
		}
	}
	return nil
}

// actionLLCGrowToHalf repartitions the ways by writing masks through
// the device file tree, the same path as the paper's shell script. The
// writes journal old -> new as param_write events.
func actionLLCGrowToHalf(fw *Firmware, n core.Notification) error {
	idx, cpa, err := fw.mountByType(core.PlaneTypeCache)
	if err != nil {
		return err
	}
	col, ok := cpa.Plane.Params().ColumnIndex("waymask")
	if !ok {
		return fmt.Errorf("prm: cache plane has no waymask parameter")
	}
	fullMask := cpa.Plane.Params().Columns()[col].Default
	ways := bits.OnesCount64(fullMask)
	if ways < 2 {
		return fmt.Errorf("prm: cannot partition a %d-way cache", ways)
	}
	half := ways / 2
	lowMask := uint64(1)<<uint(half) - 1
	highMask := fullMask &^ lowMask
	if err := fw.echoMask(idx, n.DSID, highMask); err != nil {
		return err
	}
	for _, ds := range core.SortedKeys(fw.ldoms) {
		if ds == n.DSID {
			continue
		}
		if err := fw.echoMask(idx, ds, lowMask); err != nil {
			return err
		}
	}
	return nil
}

// echoMask writes a waymask through the file tree.
func (fw *Firmware) echoMask(cpaIdx int, ds core.DSID, mask uint64) error {
	path := fmt.Sprintf("/sys/cpa/cpa%d/ldoms/ldom%d/parameters/waymask", cpaIdx, ds)
	if !fw.fs.Exists(path) {
		// LDom not materialized on this plane yet; program directly.
		cpa := fw.mounts[cpaIdx].cpa
		col, _ := cpa.Plane.Params().ColumnIndex("waymask")
		return cpa.WriteEntry(ds, col, core.SelParameter, mask)
	}
	return fw.fs.WriteFile(path, fmt.Sprintf("%#x", mask))
}

func actionMemRaisePriority(fw *Firmware, n core.Notification) error {
	idx, _, err := fw.mountByType(core.PlaneTypeMemory)
	if err != nil {
		return err
	}
	path := fmt.Sprintf("/sys/cpa/cpa%d/ldoms/ldom%d/parameters/priority", idx, n.DSID)
	return fw.fs.WriteFile(path, "1")
}

// mountByType finds a mounted CPA by plane type.
func (fw *Firmware) mountByType(typ byte) (int, *core.CPA, error) {
	for idx, m := range fw.mounts {
		if m.cpa.Plane.Type() == typ {
			return idx, m.cpa, nil
		}
	}
	return 0, nil, fmt.Errorf("prm: no control plane of type %c mounted", typ)
}
