// Package repro is an executable reproduction of "Blockchain Abstract
// Data Type" (Anceaume, Del Pozzo, Ludinard, Potop-Butucaru,
// Tucci-Piergiovanni — SPAA 2019, arXiv:1802.09877).
//
// The public API is the btsim package: a registry of protocol systems
// (the seven of Section 5, each stated once and run either simulated
// or deployed) behind one System
// interface, functional run options, and checked, replayable results.
// Import repro/btsim (plus repro/btsim/systems for the built-in
// registrations); the implementation lives under internal/ (see
// README.md for the map). The runnable entry points are:
//
//	cmd/btadt       — regenerate every figure/table of the paper
//	cmd/classify    — regenerate Table 1 (-system for one registered system)
//	cmd/scenarios   — adversarial catalogue + violation matrix (-list)
//	cmd/historyviz  — render histories, BlockTrees and fault timelines
//	examples/...    — quickstart, powsim, consortium, consensusnumber,
//	                  hierarchy (written against repro/btsim only)
//
// The root package holds only the benchmark harness (bench_test.go)
// and the cross-layer pinned tests: pipeline/scenario replay digests
// (determinism_test.go) and the examples' public-API import boundary
// (boundary_test.go). Measurements have three entry points and no
// others:
//
//	go test -run '^$' -bench SimScale -benchtime 1x -benchmem .
//	                                — the pipeline scaling rows (SCALING.md)
//	go run ./cmd/scenarios -long full — the ≥1M-operation streamed run
//	bash benchmark/run.sh           — the benchmark every claim is made on
package repro
