package pipeline

import (
	"os"
	"testing"

	"flowery/internal/campaign"
	"flowery/internal/shard"
)

// TestMain lets this test binary serve as the shard worker the
// process-executor test respawns.
func TestMain(m *testing.M) {
	shard.MaybeServeWorker()
	os.Exit(m.Run())
}

// TestShardedCampaignMatchesUnsharded: the pipeline's sharded path
// (in-process executor and worker processes alike) must reproduce the
// plain campaign node bit for bit, and the two must live under
// different cache keys so the comparison never degenerates into a
// cache hit.
func TestShardedCampaignMatchesUnsharded(t *testing.T) {
	src := testSource(t)
	plain := New(testCfg)
	want, err := plain.Campaign(src, RawVariant(), CampaignOpts{Layer: LayerAsm})
	if err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{0, 2} {
		cfg := testCfg
		cfg.Shards = 4
		cfg.ShardPool.Procs = procs
		p := New(cfg)
		got, err := p.Campaign(src, RawVariant(), CampaignOpts{Layer: LayerAsm})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if got.Counts != want.Counts || got.SDCByOrigin != want.SDCByOrigin ||
			got.GoldenDyn != want.GoldenDyn || got.GoldenInjectable != want.GoldenInjectable {
			t.Fatalf("procs=%d: sharded campaign drifted:\n%+v\nvs\n%+v", procs, got, want)
		}
	}
}

// TestShardKeyInKey: shard count must be part of the campaign key, and
// scheduling knobs (ShardPool) must not be.
func TestShardKeyInKey(t *testing.T) {
	src := testSource(t)
	cfg := testCfg
	cfg.Shards = 2
	p := New(cfg)
	if _, err := p.Campaign(src, RawVariant(), CampaignOpts{Layer: LayerAsm}); err != nil {
		t.Fatal(err)
	}
	if st := stageTel(t, p, StageCampaign); st.Misses != 1 {
		t.Fatalf("campaign misses = %d, want 1", st.Misses)
	}
	// Same campaign again: a hit, proving ShardPool-independent keys
	// would have coalesced (procs isn't in Config mid-flight, but the
	// key must be stable for the same shard count).
	if _, err := p.Campaign(src, RawVariant(), CampaignOpts{Layer: LayerAsm}); err != nil {
		t.Fatal(err)
	}
	if st := stageTel(t, p, StageCampaign); st.Hits != 1 {
		t.Fatalf("campaign hits = %d, want 1", st.Hits)
	}
}

// TestShardedPrunedCampaignIgnoresShards: pruned campaigns stratify
// rather than shard; a pruned request under a sharded config must
// succeed via RunPruned, not be rejected by RunSharded.
func TestShardedPrunedCampaignIgnoresShards(t *testing.T) {
	src := testSource(t)
	cfg := testCfg
	cfg.Shards = 4
	p := New(cfg)
	st, err := p.Campaign(src, RawVariant(), CampaignOpts{
		Layer: LayerAsm, Pruning: campaign.PruneClasses, PilotsPerClass: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Pruned {
		t.Fatal("pruned campaign did not run pruned")
	}
}

// TestCampaignRecordsSink: the Records hook observes the campaign's
// per-run stream on a miss (both sharded and not).
func TestCampaignRecordsSink(t *testing.T) {
	src := testSource(t)
	for _, shards := range []int{0, 3} {
		cfg := testCfg
		cfg.Shards = shards
		p := New(cfg)
		var recs []campaign.Record
		st, err := p.Campaign(src, RawVariant(), CampaignOpts{
			Layer:   LayerAsm,
			Records: func(r campaign.Record) { recs = append(recs, r) },
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(recs) != st.Runs {
			t.Fatalf("shards=%d: %d records for %d runs", shards, len(recs), st.Runs)
		}
		for i, r := range recs {
			if r.Run != i {
				t.Fatalf("shards=%d: record %d out of order (%d)", shards, i, r.Run)
			}
		}
	}
}
