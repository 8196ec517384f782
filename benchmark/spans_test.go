package main

import "testing"

// A span's self time is its duration minus the union of its children,
// which may overlap (two nodes answering in parallel) and are clipped to
// the parent.
func TestSelfTime(t *testing.T) {
	sp := []span{
		{Name: spanRouter, Start: 100, End: 200},
		{Name: spanServer, Start: 110, End: 150},
		{Name: spanServer, Start: 130, End: 170}, // overlaps the first child
		{Name: spanServer, Start: 190, End: 230}, // runs past the parent
	}
	if got := selfTime(sp, 0, []int{3, 1, 2}); got != 100-60-10 {
		t.Errorf("self time %d, want 30", got)
	}
	if got := selfTime(sp, 1, nil); got != 40 {
		t.Errorf("leaf self time %d, want 40", got)
	}
}

// resolve ties a routed op's spans together: handlers by the connection
// they arrived on, executor calls by what they are about.
func TestResolveRoutedOp(t *testing.T) {
	tr := newTracer()
	key := execKey{kind: opSelect, lo: 10, hi: 20}
	for op := int64(0); op < 2; op++ {
		tr.keyOps[key] = append(tr.keyOps[key], op) // the same range twice
	}
	at := int64(0)
	add := func(s span) int {
		s.Parent = -1
		tr.spans = append(tr.spans, s)
		return len(tr.spans) - 1
	}
	for op := int64(0); op < 2; op++ {
		base := at + op*1000
		root := add(span{Name: spanOp, Node: -1, Op: op, Start: base, End: base + 900})
		client := add(span{Name: spanClient, Node: -1, Op: op, Start: base + 10, End: base + 890})
		tr.conns["client:1"] = append(tr.conns["client:1"], connUse{at: base + 20, span: client})
		rt := add(span{Name: spanRouter, Node: -1, Op: -1, Start: base + 100, End: base + 800, conn: "client:1"})
		for node := 0; node < 2; node++ {
			conn := []string{"router:1", "router:2"}[node]
			tr.conns[conn] = append(tr.conns[conn], connUse{at: base + 150, span: rt})
			add(span{Name: spanServer, Node: node, Op: -1, Start: base + 200, End: base + 700, conn: conn})
			add(span{Name: spanExecRun, Node: node, Op: -1, Start: base + 300, End: base + 600, key: key})
		}
		_ = root
	}
	// A health probe's handler span: nobody's connection.
	add(span{Name: spanServer, Node: 0, Op: -1, Start: 50, End: 60, conn: "probe:9"})

	if got := tr.resolve(); got != 1 {
		t.Fatalf("%d unresolved spans, want 1 (the probe)", got)
	}
	for i, s := range tr.spans[:14] {
		wantOp := int64(i / 7)
		if s.Op != wantOp {
			t.Errorf("span %d (%s): op %d, want %d", i, s.Name, s.Op, wantOp)
		}
		if s.Name == spanOp {
			continue
		}
		p := tr.spans[s.Parent]
		if spanLayer[p.Name] != spanLayer[s.Name]-1 || p.Op != s.Op {
			t.Errorf("span %d (%s): parent is %s of op %d", i, s.Name, p.Name, p.Op)
		}
		if s.Name == spanExecRun && p.Node != s.Node {
			t.Errorf("span %d: executor call on node %d parented to node %d's handler", i, s.Node, p.Node)
		}
	}
	self := tr.selfByName()
	// Per op: root 900-880, client 880-700, router 700-500 (two parallel
	// handlers cover it once), each handler 500-300, each exec 300.
	want := map[string]int64{spanOp: 2 * 20, spanClient: 2 * 180, spanRouter: 2 * 200, spanServer: 4*200 + 10, spanExecRun: 4 * 300}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
}
