package experiments

import (
	"context"
	"runtime"
	"testing"

	"prodsynth/internal/core"
	"prodsynth/internal/eval"
	"prodsynth/internal/synth"
)

// paperNumbers is one environment's reproduction of the paper's quality
// numbers: Table 2, Table 4, Figure 6's coverage and the drop-one-feature
// ablation.
type paperNumbers struct {
	Products, AttributePairs, PredictedValid int
	AttributePrec, ProductPrec               float64
	Heavy, Light                             recallPin
	// Fig6 is coverage@0.9 and @0.8 for the classifier, JS-MC and
	// Jaccard-MC, in that order.
	Fig6 [3][2]int
	// DropOne is coverage@0.9 and @0.8 for all six features, then for
	// each feature dropped in FeatureNames order.
	DropOne [7][2]int
}

type recallPin struct {
	Products            int
	Recall, Precision   float64
	AvgPool, AvgSynthed float64
}

func pinRecall(r eval.RecallReport) recallPin {
	return recallPin{r.Products, r.AttributeRecall, r.AttributePrecision, r.AvgPoolSize, r.AvgSynthesized}
}

// TestPaperNumbersPinned pins the paper's quality numbers exactly on two
// small marketplaces, so any change to features, training, scoring,
// reconciliation or fusion that moves a reported figure shows up as the
// precise value that moved. The scale is the smallest at which Table 4's
// heavy bucket (products with ten or more offers) is not empty. Wall time
// is about 1.5 s on one Xeon core (GOMAXPROCS=1).
func TestPaperNumbersPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("score bits are pinned on amd64; other architectures may fuse multiply-adds")
	}
	// Re-recorded when the classifier's SGD fit became a Newton/IRLS solve
	// (a deliberate behaviour change): the classifier's coverage, the
	// drop-one rows and seed 2's Table 2 and Table 4 moved; the JS-MC and
	// Jaccard-MC baselines, which do not train, did not.
	want := map[int64]paperNumbers{
		1: {
			Products:       112,
			AttributePairs: 805,
			PredictedValid: 835,
			AttributePrec:  0.9850931677018634,
			ProductPrec:    0.9107142857142857,
			Heavy:          recallPin{Products: 3, Recall: 1, Precision: 1, AvgPool: 97.33333333333333, AvgSynthed: 10.333333333333334},
			Light:          recallPin{Products: 109, Recall: 0.9542079207920792, Precision: 0.9844961240310077, AvgPool: 22.155963302752294, AvgSynthed: 7.10091743119266},
			Fig6:           [3][2]int{{480, 567}, {477, 550}, {484, 550}},
			DropOne:        [7][2]int{{480, 567}, {482, 566}, {483, 575}, {483, 567}, {483, 567}, {478, 567}, {480, 567}},
		},
		2: {
			Products:       108,
			AttributePairs: 766,
			PredictedValid: 856,
			AttributePrec:  0.9856396866840731,
			ProductPrec:    0.8981481481481481,
			Heavy:          recallPin{Products: 6, Recall: 1, Precision: 1, AvgPool: 61.833333333333336, AvgSynthed: 7},
			Light:          recallPin{Products: 102, Recall: 0.9809782608695652, Precision: 0.9848066298342542, AvgPool: 22.04901960784314, AvgSynthed: 7.098039215686274},
			Fig6:           [3][2]int{{576, 666}, {553, 638}, {561, 638}},
			DropOne:        [7][2]int{{576, 666}, {577, 667}, {568, 665}, {576, 666}, {576, 668}, {576, 670}, {576, 667}},
		},
	}
	for _, seed := range []int64{1, 2} {
		e, err := Setup(context.Background(), synth.Config{
			Seed:                seed,
			CategoriesPerDomain: 2,
			ProductsPerCategory: 40,
			Merchants:           60,
		}, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		got := measurePaperNumbers(t, e)
		if got != want[seed] {
			t.Errorf("seed %d: paper numbers moved\n got  %#v\n want %#v", seed, got, want[seed])
		}
	}
}

func measurePaperNumbers(t *testing.T, e *Env) paperNumbers {
	t.Helper()
	t2 := Table2(e)
	heavy, light := Table4(e)
	out := paperNumbers{
		Products:       t2.Products,
		AttributePairs: t2.AttributePairs,
		PredictedValid: t2.PredictedValid,
		AttributePrec:  t2.AttributePrec,
		ProductPrec:    t2.ProductPrec,
		Heavy:          pinRecall(heavy),
		Light:          pinRecall(light),
	}
	fig, err := Figure6(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Names) != len(out.Fig6) {
		t.Fatalf("Figure 6 has %d systems, want %d", len(fig.Names), len(out.Fig6))
	}
	for i, name := range fig.Names {
		out.Fig6[i] = [2]int{fig.CoverageAt(name, 0.9), fig.CoverageAt(name, 0.8)}
	}
	rows, err := AblationDropFeature(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(out.DropOne) {
		t.Fatalf("drop-one ablation has %d rows, want %d", len(rows), len(out.DropOne))
	}
	for i, r := range rows {
		out.DropOne[i] = [2]int{r.Cov90, r.Cov80}
	}
	return out
}
