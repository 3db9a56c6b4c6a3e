package topology

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestGeneratePaper10Shape(t *testing.T) {
	pop := Generate(Paper10)
	if got := pop.Routers(); got != 10 {
		t.Fatalf("routers = %d, want 10", got)
	}
	if got := len(pop.Endpoints); got != 12 {
		t.Fatalf("endpoints = %d, want 12", got)
	}
	// 27 links as in Fig 7's instance: 15 inter-router + 12 endpoint.
	if got := pop.G.NumEdges(); got != 27 {
		t.Fatalf("links = %d, want 27", got)
	}
	if !pop.G.Connected() {
		t.Fatal("generated POP is disconnected")
	}
}

func TestGeneratePaper15Shape(t *testing.T) {
	pop := Generate(Paper15)
	if pop.Routers() != 15 || len(pop.Endpoints) != 45 {
		t.Fatalf("routers=%d endpoints=%d, want 15, 45", pop.Routers(), len(pop.Endpoints))
	}
	if got := pop.G.NumEdges(); got != 71 {
		t.Fatalf("links = %d, want 71 as in Fig 8", got)
	}
}

func TestPreset(t *testing.T) {
	for name, want := range map[string]Config{
		"paper10": Paper10, "paper15": Paper15, "paper29": Paper29, "paper80": Paper80,
	} {
		got, err := Preset(name)
		if err != nil || got != want {
			t.Errorf("Preset(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Routers: 12, InterRouterLinks: 20, Endpoints: 9, Seed: 42})
	b := Generate(Config{Routers: 12, InterRouterLinks: 20, Endpoints: 9, Seed: 42})
	if a.G.NumNodes() != b.G.NumNodes() || a.G.NumEdges() != b.G.NumEdges() {
		t.Fatal("same seed, different size")
	}
	ea, eb := a.G.Edges(), b.G.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	c := Generate(Config{Routers: 12, InterRouterLinks: 20, Endpoints: 9, Seed: 43})
	different := c.G.NumEdges() != a.G.NumEdges()
	if !different {
		ec := c.G.Edges()
		for i := range ea {
			if ea[i] != ec[i] {
				different = true
				break
			}
		}
	}
	if !different {
		t.Fatal("different seeds produced identical topologies")
	}
}

func TestGenerateKinds(t *testing.T) {
	pop := Generate(Config{Routers: 8, InterRouterLinks: 12, Endpoints: 6, Seed: 1})
	nb, na, nv := 0, 0, 0
	for n, k := range pop.Kind {
		switch k {
		case Backbone:
			nb++
		case Access:
			na++
		case Virtual:
			nv++
			// Endpoints hang off exactly one link.
			if pop.G.Degree(graph.NodeID(n)) != 1 {
				t.Fatalf("endpoint %d has degree %d", n, pop.G.Degree(graph.NodeID(n)))
			}
			if pop.IsRouter(graph.NodeID(n)) {
				t.Fatalf("endpoint %d claims to be a router", n)
			}
		}
	}
	if nb != len(pop.Backbone) || na != len(pop.Access) || nv != len(pop.Endpoints) {
		t.Fatal("kind lists inconsistent")
	}
	if nb < 2 {
		t.Fatalf("backbone count %d < 2", nb)
	}
}

func TestGenerateClampsLinkCount(t *testing.T) {
	// Requesting more inter-router links than a complete graph allows
	// must clamp, not loop forever.
	pop := Generate(Config{Routers: 4, InterRouterLinks: 1000, Endpoints: 2, Seed: 7})
	inter := pop.G.NumEdges() - len(pop.Endpoints)
	if inter > 4*3/2 {
		t.Fatalf("inter-router links = %d exceeds complete graph", inter)
	}
}

func TestGeneratePanics(t *testing.T) {
	for name, cfg := range map[string]Config{
		"too few routers":   {Routers: 2, Endpoints: 5},
		"too few endpoints": {Routers: 5, Endpoints: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			Generate(cfg)
		}()
	}
}

func TestNodeKindString(t *testing.T) {
	if Backbone.String() != "backbone" || Access.String() != "access" || Virtual.String() != "virtual" {
		t.Fatal("kind strings wrong")
	}
	if NodeKind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	pop := Generate(Config{Routers: 9, InterRouterLinks: 14, Endpoints: 7, Seed: 11})
	var sb strings.Builder
	if err := Write(&sb, pop); err != nil {
		t.Fatal(err)
	}
	back, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.G.NumNodes() != pop.G.NumNodes() || back.G.NumEdges() != pop.G.NumEdges() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			back.G.NumNodes(), back.G.NumEdges(), pop.G.NumNodes(), pop.G.NumEdges())
	}
	if len(back.Backbone) != len(pop.Backbone) || len(back.Access) != len(pop.Access) ||
		len(back.Endpoints) != len(pop.Endpoints) {
		t.Fatal("round trip class counts differ")
	}
	ea, eb := pop.G.Edges(), back.G.Edges()
	for i := range ea {
		if ea[i].U != eb[i].U || ea[i].V != eb[i].V || ea[i].Capacity != eb[i].Capacity {
			t.Fatalf("edge %d differs after round trip", i)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"bad record":       "frob 1 2 3",
		"node field count": "node 0 x",
		"node bad index":   "node 5 x backbone",
		"node bad kind":    "node 0 x core",
		"link fields":      "node 0 x backbone\nlink 0",
		"link range":       "node 0 x backbone\nlink 0 9 100",
		"link capacity":    "node 0 a backbone\nnode 1 b backbone\nlink 0 1 -5",
		"link not number":  "node 0 a backbone\nnode 1 b backbone\nlink 0 one 5",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want parse error", name)
		}
	}
}

func TestParseSkipsCommentsAndBlank(t *testing.T) {
	in := "# header\n\nnode 0 a backbone\nnode 1 b access\n# mid\nlink 0 1 155\n"
	pop, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if pop.G.NumNodes() != 2 || pop.G.NumEdges() != 1 {
		t.Fatalf("parsed %d nodes %d edges", pop.G.NumNodes(), pop.G.NumEdges())
	}
}

// Property: any sane configuration yields a connected POP with the
// requested router and endpoint counts.
func TestGenerateAlwaysConnected(t *testing.T) {
	f := func(seed int64) bool {
		r := 3 + int(uint64(seed)%20)
		e := 2 + int(uint64(seed/7)%30)
		links := r + int(uint64(seed/13)%(3*uint64(r)))
		pop := Generate(Config{Routers: r, InterRouterLinks: links, Endpoints: e, Seed: seed})
		return pop.G.Connected() && pop.Routers() == r && len(pop.Endpoints) == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
