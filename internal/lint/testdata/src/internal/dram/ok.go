package dramfix

import "repro/internal/core"

// publish uses the exported plane API — the sanctioned statistics path
// for hardware models, by column index or by name: no finding.
func publish(p *core.Plane, ds core.DSID, hit bool) {
	if hit {
		p.AddStatAt(ds, 0, 1)
	} else {
		p.AddStatAt(ds, 1, 1)
	}
	p.SubStatAt(ds, 1, 1)
	p.ObserveAt(ds, 2, 1, 1)
	p.SetStatAt(ds, 3, 42)
	p.SetStat(ds, "miss_rate", 42)
}

// consult reads a parameter on the data path: reads are always fine.
func consult(p *core.Plane, ds core.DSID) uint64 {
	return p.ParamAt(ds, 0) + p.Param(ds, "quota")
}
