package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"mtexc/internal/harness"
)

// writeGoldens runs one pass of every workload and writes the outputs,
// keyed by workload and op, to path (golden/outputs.json). Regenerate
// only when a change sets out to alter simulated results:
//
//	bash perfbench/run.sh -write-goldens perfbench/golden/outputs.json
func writeGoldens(path string) error {
	all := make(map[string]map[string]any)
	for _, w := range workloads {
		dir, err := scratchDir("goldens-")
		if err != nil {
			return err
		}
		order := make([]int, w.items)
		for i := range order {
			order[i] = i
		}
		ps, err := w.pass(order, dir)
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		for op, out := range ps.outputs {
			if s, ok := out.(string); ok && strings.HasPrefix(s, "FAIL") {
				return fmt.Errorf("%s op %s failed: %s", w.name, op, s)
			}
		}
		all[w.name] = ps.outputs
	}
	return writeJSON(path, all)
}

// writeReference simulates fig5-sampled's eight cells exactly at the
// same instruction budget and writes their penalties per miss to path
// (golden/reference.json), the reference of core.sample_abs_err:
//
//	bash perfbench/run.sh -write-reference perfbench/golden/reference.json
func writeReference(path string) error {
	t, err := harness.Figure5(harness.Options{Insts: sampledInsts, Benchmarks: sampledBenches})
	if err != nil {
		return err
	}
	ref := make(map[string]float64)
	for op, v := range tableOutputs(t) {
		f, ok := v.(float64)
		if !ok {
			return fmt.Errorf("exact %s failed", op)
		}
		ref[op] = f
	}
	return writeJSON(path, ref)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
