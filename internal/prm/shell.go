package prm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Sh executes one firmware shell command and returns its output. The
// supported commands mirror the paper's operator interface (§5.2):
//
//	cat <path>
//	echo <value> > <path>
//	ls <path>
//	tree <path>
//	pardtrigger <cpaN> -ldom=K -stats=NAME -cond=OP,VALUE -action=NAME
//	policy [show <name> | explain [<name>] | unload <name>]
//	ldoms
//	log                      (renders the audit journal)
//
// Example from the paper:
//
//	echo 0xFF00 > /sys/cpa/cpa0/ldoms/ldom0/parameters/waymask
//	pardtrigger cpa0 -ldom=0 -stats=miss_rate -cond=gt,300 -action=llc_grow_to_half
func (fw *Firmware) Sh(cmdline string) (string, error) {
	fields := strings.Fields(cmdline)
	if len(fields) == 0 {
		return "", nil
	}
	switch fields[0] {
	case "cat":
		if len(fields) != 2 {
			return "", fmt.Errorf("prm: usage: cat <path>")
		}
		return fw.fs.ReadFile(fields[1])

	case "echo":
		// echo VALUE > PATH
		gt := -1
		for i, f := range fields {
			if f == ">" {
				gt = i
			}
		}
		if gt != 2 || len(fields) != 4 {
			return "", fmt.Errorf("prm: usage: echo <value> > <path>")
		}
		return "", fw.fs.WriteFile(fields[3], fields[1])

	case "ls":
		if len(fields) != 2 {
			return "", fmt.Errorf("prm: usage: ls <path>")
		}
		entries, err := fw.fs.List(fields[1])
		if err != nil {
			return "", err
		}
		return strings.Join(entries, "\n"), nil

	case "tree":
		if len(fields) != 2 {
			return "", fmt.Errorf("prm: usage: tree <path>")
		}
		return fw.fs.Tree(fields[1])

	case "pardtrigger":
		return fw.shPardtrigger(fields[1:])

	case "policy":
		return fw.shPolicy(fields[1:])

	case "ldoms":
		var b strings.Builder
		for _, ld := range fw.LDoms() {
			fmt.Fprintf(&b, "ldom%d ds=%d name=%s cores=%v\n", ld.DSID, ld.DSID, ld.Spec.Name, ld.Spec.Cores)
		}
		return b.String(), nil

	case "log":
		return telemetry.JournalText(fw.journal, 0), nil
	}
	return "", fmt.Errorf("prm: unknown command %q", fields[0])
}

// MustSh is Sh that panics on error; for examples and experiment
// harnesses where a failed operator command is a setup bug.
func (fw *Firmware) MustSh(cmdline string) string {
	out, err := fw.Sh(cmdline)
	if err != nil {
		panic(fmt.Sprintf("prm: %s: %v", cmdline, err))
	}
	return out
}

func (fw *Firmware) shPardtrigger(args []string) (string, error) {
	if len(args) < 1 {
		return "", fmt.Errorf("prm: usage: pardtrigger <cpaN> -ldom=K -stats=NAME -cond=OP,VAL -action=NAME")
	}
	dev := strings.TrimPrefix(strings.TrimPrefix(args[0], "/dev/"), "cpa")
	cpaIdx, err := strconv.Atoi(dev)
	if err != nil {
		return "", fmt.Errorf("prm: bad control plane %q", args[0])
	}
	var (
		ldom   = -1
		stat   string
		opStr  string
		valStr string
		action = ActionLogOnly
	)
	for _, a := range args[1:] {
		switch {
		case strings.HasPrefix(a, "-ldom="):
			ldom, err = strconv.Atoi(a[len("-ldom="):])
			if err != nil {
				return "", fmt.Errorf("prm: bad -ldom: %v", err)
			}
		case strings.HasPrefix(a, "-stats="):
			stat = a[len("-stats="):]
		case strings.HasPrefix(a, "-cond="):
			parts := strings.SplitN(a[len("-cond="):], ",", 2)
			if len(parts) != 2 {
				return "", fmt.Errorf("prm: -cond wants OP,VALUE")
			}
			opStr, valStr = parts[0], parts[1]
		case strings.HasPrefix(a, "-action="):
			action = a[len("-action="):]
		default:
			return "", fmt.Errorf("prm: unknown flag %q", a)
		}
	}
	if ldom < 0 || stat == "" || opStr == "" {
		return "", fmt.Errorf("prm: -ldom, -stats and -cond are required")
	}
	op, err := core.ParseCmpOp(opStr)
	if err != nil {
		return "", err
	}
	val, err := strconv.ParseUint(valStr, 0, 64)
	if err != nil {
		return "", fmt.Errorf("prm: bad condition value %q", valStr)
	}
	slot, err := fw.InstallTrigger(cpaIdx, core.DSID(ldom), stat, op, val, action)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("installed trigger slot %d on cpa%d: ldom%d %s %s %d => %s",
		slot, cpaIdx, ldom, stat, op, val, action), nil
}
