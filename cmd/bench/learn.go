package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"prodsynth"
)

// offline_learn: the paper's contribution (auto-labelled training set →
// correspondence classifier) and the largest single cost in the system;
// /v1/reload runs it. The runtime layers (cluster, fusion, stream, serve)
// do nothing here. No warm-up: a fresh process pays the cold cost.

const (
	// setupRepeats: set-up here is generation alone, about a second, so it
	// is repeated and the median reported.
	setupRepeats = 3
	minLearns    = 2
)

func runOfflineLearn(ctx context.Context, b *bench) error {
	var m *market
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		m = b.generate()
		setup = append(setup, time.Since(start).Seconds())
	}
	b.put("setup_s", "s", setup...)
	b.calibrate()

	historical := len(m.ds.HistoricalOffers)
	var learnS []float64
	var t throughput
	var want string
	deadline := b.deadline()
	for i := 0; i < minLearns || time.Now().Before(deadline); i++ {
		model, seconds, mallocs, err := m.learn(ctx)
		if err != nil {
			return fmt.Errorf("learn %d: %w", i, err)
		}
		learnS = append(learnS, seconds)
		t.add(historical, seconds, mallocs)
		got := correspondenceDigest(model.Correspondences())
		if i == 0 {
			m.use(model)
			want = got
			b.digest("correspondences", got)
		}
		b.check(got == want, "learn %d selected different correspondences from the first", i)
	}
	b.ops(len(learnS), 0)
	b.put("learn_s", "s", learnS...)
	t.report(b)
	st := m.model.Stats()
	b.logf("offline_learn: %d historical offers, %d matched, %d candidates, training set %d, %d correspondences",
		st.HistoricalOffers, st.MatchedOffers, st.Candidates, st.TrainingSize, st.Correspondences)

	_, err := b.reference(ctx, m, "allocs_per_offer")
	return err
}

// correspondenceDigest identifies what a Learn selected. Correspondences
// come back in map order, so they are sorted first.
func correspondenceDigest(all []prodsynth.Correspondence) string {
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Key != b.Key {
			return a.Key.String() < b.Key.String()
		}
		return a.MerchantAttr < b.MerchantAttr
	})
	data, err := json.Marshal(all)
	if err != nil {
		panic(err) // strings and floats: cannot fail
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}
