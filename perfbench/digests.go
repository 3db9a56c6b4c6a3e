package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"repro"
	"repro/internal/engine"
)

// digests.json holds the reference outputs the workloads check against:
// each figure's series bytes as produced by one engine worker (figures
// are byte-identical for any worker count), and the placement of every
// step of the churn chain pool as produced by cold repro.Solve calls.
// Regenerate it with --record only when the program's output is meant
// to change.
//
//go:embed digests.json
var digestsJSON []byte

type digests struct {
	Figures map[string]string `json:"figures"`
	Churn   churnDigests      `json:"churn"`
}

type churnDigests struct {
	Family string         `json:"family"`
	Size   int            `json:"size"`
	K      float64        `json:"k"`
	Steps  int            `json:"steps"`
	Chains []chainDigests `json:"chains"`
}

type chainDigests struct {
	Seed  int64    `json:"seed"`
	Steps []string `json:"steps"`
}

func loadDigests() (*digests, error) {
	var d digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("parse digests.json: %w", err)
	}
	for _, f := range figureSuite() {
		if d.Figures[f.name] == "" {
			return nil, fmt.Errorf("digests.json has no digest for figure %s; run --record", f.name)
		}
	}
	c := d.Churn
	if c.Family != churnFamily || c.Size != churnSize || c.K != churnK || c.Steps != churnSteps || len(c.Chains) != len(churnChainSeeds) {
		return nil, fmt.Errorf("digests.json describes a different churn pool; run --record")
	}
	for i, ch := range c.Chains {
		if ch.Seed != churnChainSeeds[i] || len(ch.Steps) != churnSteps+1 {
			return nil, fmt.Errorf("digests.json churn chain %d does not match the pool; run --record", i)
		}
	}
	return &d, nil
}

// recordDigests recomputes the reference digests: every figure on a
// one-worker engine, every churn step by a cold repro.Solve.
func recordDigests(ctx context.Context, path string) error {
	d := digests{Figures: make(map[string]string)}
	for _, f := range figureSuite() {
		var buf bytes.Buffer
		eng := engine.New(engine.Options{Workers: 1, Cache: engine.NewCache()})
		if err := f.run(ctx, eng, &buf); err != nil {
			return fmt.Errorf("figure %s: %w", f.name, err)
		}
		d.Figures[f.name] = digest(buf.Bytes())
	}
	d.Churn = churnDigests{Family: churnFamily, Size: churnSize, K: churnK, Steps: churnSteps}
	for _, seed := range churnChainSeeds {
		ch, err := buildChain(seed)
		if err != nil {
			return err
		}
		cd := chainDigests{Seed: seed}
		for j := range ch.demands {
			in, err := repro.RouteSingle(ch.pop, ch.demands[j])
			if err != nil {
				return err
			}
			res, err := repro.Solve(ctx, repro.SolverTapExact, in, repro.WithCoverage(churnK))
			if err != nil {
				return fmt.Errorf("chain %d step %d: %w", seed, j, err)
			}
			if !res.Optimal {
				return fmt.Errorf("chain %d step %d: cold solve did not prove optimality", seed, j)
			}
			cd.Steps = append(cd.Steps, placementDigest(res.Taps.Edges))
		}
		d.Churn.Chains = append(d.Churn.Chains, cd)
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
