package lint

import (
	"go/ast"
)

// resourcePkgs are the hardware resource models: the data-plane side of
// PARD's control/data-plane separation. They may read parameters
// (Plane.ParamAt) and publish statistics (Plane.AddStatAt/SubStatAt/
// SetStatAt/ObserveAt, by column index),
// but programming the tables — parameters, rows, triggers — is the
// control plane's job, reached only through the exported Plane/CPA API.
var resourcePkgs = map[string]bool{
	"internal/cache": true,
	"internal/dram":  true,
	"internal/xbar":  true,
	"internal/iodev": true,
	"internal/cpu":   true,
	// The switch fabric is a resource model too: its forwarding path
	// reads weights and rate caps but never programs its own tables.
	"internal/fabric": true,
}

// tableMutators are the (*core.Table) methods that change table
// contents. Calling them from a resource package bypasses the plane
// API's validation (column writability, existence) and the single
// programming path the firmware, console and experiments rely on.
var tableMutators = map[string]bool{
	"Set": true, "SetName": true, "Add": true, "Sub": true,
	"EnsureRow": true, "DeleteRow": true,
}

// PlaneAccess enforces the control/data-plane discipline: resource
// packages must not mutate control-plane tables directly.
var PlaneAccess = &Analyzer{
	Name: "planeaccess",
	Doc:  "resource packages mutate control-plane tables only via the Plane/CPA API",
	Run:  runPlaneAccess,
}

func runPlaneAccess(pass *Pass) {
	if !resourcePkgs[pass.Pkg.RelPath] {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || !tableMutators[fn.Name()] || !isCoreMethod(fn, "Table", fn.Name()) {
				return true
			}
			pass.Reportf(call.Pos(), "resource package mutates a control-plane table via (*core.Table).%s: use the exported Plane API (SetParam/SetStatAt/AddStatAt/SubStatAt/ObserveAt/CreateRow/DeleteRow) or the CPA programming interface", fn.Name())
			return true
		})
	}
}
