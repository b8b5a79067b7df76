package main

import (
	"reflect"
	"strings"
	"testing"

	"turnstile/internal/corpus"
)

func runnableApps() []*corpus.App { return newDeployPhase(1).apps }

func TestDeployBlockDeterministicPerSeed(t *testing.T) {
	apps := runnableApps()
	a, err := deployBlock(5, 0, apps)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := deployBlock(5, 0, apps)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and block gave different inputs")
	}
	c, _ := deployBlock(6, 0, apps)
	if reflect.DeepEqual(a, c) {
		t.Fatal("another seed gave the same inputs")
	}
	if len(a) != len(apps)+genPerBlock {
		t.Fatalf("block has %d inputs, want %d", len(a), len(apps)+genPerBlock)
	}
}

func TestDeploySourcesNeverRepeat(t *testing.T) {
	d := newDeployPhase(3)
	n := 0
	for b := 0; b < 4; b++ {
		blk, err := deployBlock(3, b, d.apps)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range blk {
			if err := d.unique(in); err != nil {
				t.Fatalf("block %d: %v", b, err)
			}
			n++
		}
	}
	if n != 4*(len(d.apps)+genPerBlock) || len(d.seen) != n {
		t.Fatalf("%d distinct sources over %d inputs", len(d.seen), n)
	}
	again := deployInput{name: "again", files: map[string]string{"x.js": "var a = 1;"}}
	if err := d.unique(again); err != nil {
		t.Fatal(err)
	}
	if err := d.unique(again); err == nil {
		t.Fatal("a repeated source was accepted")
	}
}

func TestStreamPayloadDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64) []string {
		r := newRng(seed, "stream-x")
		var perm [3]int
		var out []string
		for i := 0; i < 51; i++ {
			out = append(out, streamPayload(r, &perm, i))
		}
		return out
	}
	if !reflect.DeepEqual(draw(1), draw(1)) {
		t.Fatal("the same seed gave different frames")
	}
	if reflect.DeepEqual(draw(1), draw(2)) {
		t.Fatal("another seed gave the same frames")
	}
	// every three frames hold one, two and three records
	for _, seed := range []uint64{1, 2, 3} {
		frames := draw(seed)
		for i := 0; i < len(frames); i += 3 {
			seen := map[int]bool{}
			for _, f := range frames[i : i+3] {
				seen[strings.Count(f, "|")+1] = true
			}
			if len(seen) != 3 {
				t.Fatalf("seed %d frames %d..%d: record counts %v", seed, i, i+2, seen)
			}
		}
	}
}

func TestServeSourcesRepeat(t *testing.T) {
	p, err := newServePhase(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if p.distinct != len(serveApps) || len(p.apps) != len(serveApps)*tenantsPerApp {
		t.Fatalf("%d tenants over %d distinct sources", len(p.apps), p.distinct)
	}
}
