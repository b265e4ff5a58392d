// Package repro is a from-scratch Go reproduction of "Supporting
// Differentiated Services in Computers via Programmable Architecture
// for Resourcing-on-Demand (PARD)", Ma et al., ASPLOS 2015.
//
// The public API lives in package repro/pard; the experiment harnesses
// regenerating every table and figure live in repro/internal/exp and
// are driven by cmd/pardbench; bench_test.go holds the component
// micro-benchmarks.
// See README.md for a tour and DESIGN.md for the system inventory.
package repro
