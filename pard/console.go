package pard

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Dispatch executes one operator console line against the system:
// either a firmware shell command (cat/echo/ls/tree/pardtrigger/ldoms/
// log) or a platform command:
//
//	create <name> <coreID> [priority]
//	workload <coreID> stream|flush|memcached|dd|lbm|leslie3d
//	run <milliseconds>
//	policy validate <file.pard>
//	policy apply <file.pard>
//	stats
//	trace
//	telemetry
//	top [series-prefix]
//	journal [n]
//	help
//
// plus the firmware's own `policy [show|explain|unload]` subcommands.
//
// pardctl uses it on stdin; the Console server exposes it over TCP
// (the PRM's Ethernet adaptor).
func Dispatch(sys *System, line string) (string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", nil
	}
	switch fields[0] {
	case "help":
		return "firmware: cat echo ls tree pardtrigger policy ldoms log\n" +
			"platform: create <name> <core> [prio] | workload <core> <kind> | run <ms> | policy validate|apply <file> | stats | trace | telemetry | top [prefix] | journal [n] | exit", nil

	case "create":
		if len(fields) < 3 {
			return "", fmt.Errorf("usage: create <name> <coreID> [priority]")
		}
		coreID, err := strconv.Atoi(fields[2])
		if err != nil {
			return "", err
		}
		if coreID < 0 || coreID >= len(sys.Cores) {
			return "", fmt.Errorf("no core %d", coreID)
		}
		var prio uint64
		if len(fields) > 3 {
			prio, err = strconv.ParseUint(fields[3], 10, 64)
			if err != nil {
				return "", err
			}
		}
		ld, err := sys.CreateLDom(LDomConfig{
			Name: fields[1], Cores: []int{coreID},
			MemBase: uint64(coreID) * (2 << 30), MemSize: 2 << 30, Priority: prio, RowBuf: prio,
		})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("created ldom%d on core %d", ld.DSID, coreID), nil

	case "workload":
		if len(fields) != 3 {
			return "", fmt.Errorf("usage: workload <coreID> stream|flush|memcached|dd|lbm|leslie3d")
		}
		coreID, err := strconv.Atoi(fields[1])
		if err != nil {
			return "", err
		}
		if coreID < 0 || coreID >= len(sys.Cores) {
			return "", fmt.Errorf("no core %d", coreID)
		}
		gen, err := namedWorkload(fields[2], coreID)
		if err != nil {
			return "", err
		}
		if sys.Cores[coreID].Running() {
			return "", fmt.Errorf("core %d already running a workload", coreID)
		}
		sys.RunWorkload(coreID, gen)
		return fmt.Sprintf("core %d running %s", coreID, fields[2]), nil

	case "run":
		if len(fields) != 2 {
			return "", fmt.Errorf("usage: run <milliseconds>")
		}
		ms, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return "", err
		}
		sys.Run(Millisecond * Tick(ms))
		return fmt.Sprintf("advanced %dms (now %v)", ms, sys.Engine.Now()), nil

	case "stats":
		var b strings.Builder
		for _, ld := range sys.Firmware.LDoms() {
			ds := ld.DSID
			fmt.Fprintf(&b, "ldom%d (%s): LLC %.2f MB, mem %d MB/s, miss %d.%d%%\n",
				ds, ld.Spec.Name,
				float64(sys.LLCOccupancyBytes(ds))/(1<<20),
				sys.MemBandwidthMBs(ds),
				sys.LLC.MissRate(ds)/10, sys.LLC.MissRate(ds)%10)
		}
		fmt.Fprintf(&b, "server CPU utilization: %.0f%%", 100*sys.CPUUtilization())
		return b.String(), nil

	case "policy":
		// File-based subcommands live here (the console can read the
		// operator's filesystem; the firmware cannot). Everything else
		// — list/show/explain/unload — falls through to the firmware.
		if len(fields) == 3 && fields[1] == "validate" {
			issues, err := sys.LintPolicyFile(fields[2])
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, issue := range issues {
				fmt.Fprintf(&b, "warning: %s\n", issue)
			}
			fmt.Fprintf(&b, "%s: ok", fields[2])
			return b.String(), nil
		}
		if len(fields) == 3 && fields[1] == "apply" {
			if err := sys.ApplyPolicyFile(fields[2]); err != nil {
				return "", err
			}
			return fmt.Sprintf("applied policy %q", policyNameFromPath(fields[2])), nil
		}
		return sys.Sh(line)

	case "telemetry":
		if sys.Telemetry == nil {
			return "", fmt.Errorf("telemetry disabled (Config.Telemetry.Disable)")
		}
		return telemetry.SummaryText(sys.Telemetry, sys.Journal), nil

	case "top":
		if sys.Telemetry == nil {
			return "", fmt.Errorf("telemetry disabled (Config.Telemetry.Disable)")
		}
		prefix := ""
		if len(fields) > 1 {
			prefix = fields[1]
		}
		return telemetry.TopText(sys.Telemetry, prefix), nil

	case "journal":
		if sys.Journal == nil {
			return "", fmt.Errorf("telemetry disabled (Config.Telemetry.Disable)")
		}
		n := 20
		if len(fields) > 1 {
			var err error
			n, err = strconv.Atoi(fields[1])
			if err != nil {
				return "", fmt.Errorf("usage: journal [n]")
			}
		}
		return telemetry.JournalText(sys.Journal, n), nil

	case "trace":
		if sys.Recorder == nil && sys.MemProbe == nil {
			return "", fmt.Errorf("tracing not enabled (Config.TraceSample or Config.ProbeMemory)")
		}
		var parts []string
		if sys.Recorder != nil {
			parts = append(parts, strings.TrimRight(sys.Recorder.BreakdownTable(), "\n"))
		}
		if sys.MemProbe != nil {
			parts = append(parts, strings.TrimRight(sys.MemProbe.Summary(), "\n"))
		}
		return strings.Join(parts, "\n"), nil
	}
	return sys.Sh(line)
}

// namedWorkload maps console workload names to generators.
func namedWorkload(name string, coreID int) (Workload, error) {
	switch name {
	case "stream":
		return NewSTREAM(0), nil
	case "flush":
		return &workload.CacheFlush{Base: 1 << 30, Footprint: 16 << 20, Seed: int64(coreID) + 1}, nil
	case "memcached":
		return Colocation{RPS: 20000}.memcached(), nil
	case "dd":
		return &workload.DiskCopy{TotalBytes: 512 << 20, ChunkBytes: 64 << 10, Write: true, Loop: true, Compute: 200}, nil
	case "lbm":
		return NewLBM(0), nil
	case "leslie3d":
		return NewLeslie3d(0), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
