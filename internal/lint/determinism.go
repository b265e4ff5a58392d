package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// simClocked lists the packages that run under the discrete-event clock
// (or, for the cmd/ entries, print experiment results): their behavior
// and output must be a pure function of configuration and seeds, the
// bit-reproducibility contract behind EXPERIMENTS.md.
var simClocked = map[string]bool{
	"internal/sim":      true,
	"internal/core":     true,
	"internal/cache":    true,
	"internal/dram":     true,
	"internal/xbar":     true,
	"internal/iodev":    true,
	"internal/cpu":      true,
	"internal/fabric":   true,
	"internal/cluster":  true,
	"internal/exp":      true,
	"internal/workload": true,
	"cmd/pardbench":     true,
}

// wallClock are the time-package functions that read or wait on the
// machine's clock. Duration constants and arithmetic stay legal.
var wallClock = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// globalRand are the math/rand (and /v2) package-level functions backed
// by the shared, unseeded global source. Constructing an explicitly
// seeded *rand.Rand (rand.New, rand.NewSource, rand.NewZipf, ...) is
// the sanctioned pattern — see workload.newRand.
var globalRand = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
	// math/rand/v2 spellings
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64N": true, "Uint32N": true, "Uint64N": true, "UintN": true, "Uint": true,
}

// Determinism enforces bit-reproducible simulation: inside sim-clocked
// packages, no wall-clock reads, no global math/rand, and no ranging
// over a map (Go randomizes iteration order per run; anything the loop
// feeds — statistics publication, scheduling, output rows — would
// differ between identical invocations). Map loops that are genuinely
// order-independent carry a pardlint:ignore suppression with a
// justification; everything else iterates core.SortedKeys.
//
// The analyzer also rejects raw concurrency — go statements, channel
// sends/receives, select — everywhere except internal/sim itself, the
// sanctioned shard runtime. Goroutine interleaving and channel delivery
// order are scheduler-dependent, so any path from them into simulation
// state breaks reproducibility; sim.ShardGroup confines that hazard
// behind barrier windows and a deterministic mailbox merge
// (internal/sim/shard.go). Concurrency whose results provably never
// reach simulation state (e.g. fanning independent experiment runs into
// private buffers printed in canonical order) carries a suppression
// with that justification.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "sim-clocked packages must be bit-reproducible",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	if !simClocked[pass.Pkg.RelPath] {
		return
	}
	// internal/sim is the sanctioned shard runtime: its worker pool and
	// mailbox barrier are the one place goroutines and channels are
	// allowed to touch sim-clocked state, because the barrier protocol
	// (and TestShardGroupDeterministicAcrossWorkers under -race) proves
	// the interleaving never reaches simulation results.
	shardRuntime := pass.Pkg.RelPath == "internal/sim"
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				path, ok := importedPkgPath(info, n.X)
				if !ok {
					return true
				}
				switch {
				case path == "time" && wallClock[n.Sel.Name]:
					pass.Reportf(n.Pos(), "time.%s reads the wall clock: sim-clocked code must use the discrete-event engine (sim.Engine.Now/Schedule)", n.Sel.Name)
				case (path == "math/rand" || path == "math/rand/v2") && globalRand[n.Sel.Name]:
					pass.Reportf(n.Pos(), "rand.%s uses the shared global source: draw from an explicitly seeded *rand.Rand instead", n.Sel.Name)
				}
			case *ast.GoStmt:
				if !shardRuntime {
					pass.Reportf(n.Pos(), "go statement in sim-clocked code: goroutine interleaving is scheduler-dependent; route parallelism through the shard runtime (sim.ShardGroup), or suppress with a justification if the goroutine provably never reaches simulation state")
				}
			case *ast.SendStmt:
				if !shardRuntime {
					pass.Reportf(n.Pos(), "channel send in sim-clocked code: delivery order is scheduler-dependent; cross-shard communication goes through sim.Shard.Send's barrier mailboxes, or suppress with a justification if the channel provably never reaches simulation state")
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !shardRuntime {
					pass.Reportf(n.Pos(), "channel receive in sim-clocked code: delivery order is scheduler-dependent; cross-shard communication goes through sim.Shard.Send's barrier mailboxes, or suppress with a justification if the channel provably never reaches simulation state")
				}
			case *ast.SelectStmt:
				if !shardRuntime {
					pass.Reportf(n.Pos(), "select in sim-clocked code: case choice is scheduler-dependent and unreproducible; route event ordering through the discrete-event engine or the shard runtime")
				}
			case *ast.RangeStmt:
				tv, ok := info.Types[n.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "range over %s: map iteration order is randomized per run; iterate core.SortedKeys(m), or suppress with a justification if provably order-independent", types.TypeString(tv.Type, types.RelativeTo(pass.Pkg.Types)))
				}
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && !shardRuntime {
					pass.Reportf(n.Pos(), "range over channel in sim-clocked code: delivery order is scheduler-dependent; cross-shard communication goes through sim.Shard.Send's barrier mailboxes")
				}
			}
			return true
		})
	}
}
