package experiments

import (
	"fmt"
	"sort"

	"gptattr/internal/attrib"
	"gptattr/internal/challenge"
	"gptattr/internal/corpus"
	"gptattr/internal/gpt"
	"gptattr/internal/ir"
	"gptattr/internal/ml"
	"gptattr/internal/stylometry"
)

// AblationFeatureFamilies measures oracle attribution accuracy
// (grouped challenge-fold CV on the 2017 corpus) for each stylometric
// feature family in isolation versus all features — quantifying where
// the attribution signal lives, an ablation of the design choice to
// use the full Caliskan-Islam feature set.
func (s *Suite) AblationFeatureFamilies() (string, error) {
	yd, err := s.Year(2017)
	if err != nil {
		return "", err
	}
	vecs, err := attrib.ExtractAll(yd.Human, attrib.Config{})
	if err != nil {
		return "", err
	}
	authors := yd.Human.Authors()
	sort.Strings(authors)
	index := make(map[string]int, len(authors))
	for i, a := range authors {
		index[a] = i
	}

	// eval trains on the vectors restricted to fams (all when empty).
	eval := func(fams ...stylometry.FeatureFamily) (float64, int, error) {
		docs := make([]stylometry.Features, len(vecs))
		for i, sp := range vecs {
			docs[i] = sp.Features(fams...)
		}
		vec := stylometry.NewVectorizer(docs, stylometry.VectorizerConfig{MinDocFreq: 2})
		d := &ml.Dataset{NumClasses: len(authors)}
		d.X = make([][]float64, len(docs))
		d.Y = make([]int, len(docs))
		d.Groups = make([]int, len(docs))
		for i, doc := range docs {
			d.X[i] = vec.Vector(doc)
			d.Y[i] = index[yd.Human.Samples[i].Author]
			d.Groups[i] = challengeIndex(yd.Human.Samples[i].Challenge)
		}
		reduced, cols := ml.ReduceByInformationGain(d, s.scale.TopFeatures, 10)
		reduced.Groups = d.Groups
		folds, err := ml.GroupKFold(reduced.Groups)
		if err != nil {
			return 0, 0, err
		}
		results, err := ml.CrossValidateForest(reduced, folds, ml.ForestConfig{
			NumTrees: s.scale.Trees, Seed: s.scale.Seed,
		})
		if err != nil {
			return 0, 0, err
		}
		return ml.MeanAccuracy(results), len(cols), nil
	}

	var rows [][]string
	for _, fam := range []stylometry.FeatureFamily{
		stylometry.FamilyLexical, stylometry.FamilyLayout, stylometry.FamilySyntactic,
	} {
		acc, nf, err := eval(fam)
		if err != nil {
			return "", fmt.Errorf("experiments: ablation %s: %w", fam, err)
		}
		rows = append(rows, []string{fam.String(), itos(nf), pct(acc)})
	}
	acc, nf, err := eval()
	if err != nil {
		return "", err
	}
	rows = append(rows, []string{"all", itos(nf), pct(acc)})
	return renderTable(
		fmt.Sprintf("Ablation: feature families (oracle grouped CV, GCJ 2017, %d authors)", s.scale.Authors),
		[]string{"Features", "Selected", "Accuracy"},
		rows, "the paper's method uses all three families"), nil
}

// AblationRepertoire sweeps the simulated model's style-repertoire
// size and reports the distinct styles the oracle observes plus the
// resulting binary detection accuracy — probing the paper's "maximum
// of 12 styles" observation.
func (s *Suite) AblationRepertoire() (string, error) {
	yd, err := s.Year(2017)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for _, k := range []int{1, 2, 4, 8, 12, 16} {
		model := gpt.NewModel(gpt.Config{Seed: s.scale.Seed*101 + int64(k), NumStyles: k})
		transformed, err := corpus.GenerateTransformed(corpus.TransformedConfig{
			Year: 2017, Rounds: s.scale.Rounds, Model: model,
			Seed: s.scale.Seed*7 + int64(k), SkipVerify: true,
		})
		if err != nil {
			return "", err
		}
		stats, err := attrib.AnalyzeStyles(yd.Oracle, transformed, nil)
		if err != nil {
			return "", err
		}
		bin, err := attrib.EvaluateBinary(yd.Human, transformed, s.attribConfig())
		if err != nil {
			return "", err
		}
		_, headShare := stats.DominantLabel()
		rows = append(rows, []string{
			itos(k),
			itos(stats.MaxStyleCount()),
			fmt.Sprintf("%.1f", stats.AverageStyleCount(corpus.SettingGPTNCT)),
			fmt.Sprintf("%.1f", headShare),
			pct(bin.MeanAccuracy),
		})
	}
	return renderTable(
		"Ablation: simulated-ChatGPT repertoire size",
		[]string{"Styles", "MaxObserved", "AvgStyles(+N)", "HeadShare%", "BinaryAcc"},
		rows, "larger repertoires spread style mass and stress the detector"), nil
}

// AblationStickiness sweeps CT style stickiness and reports distinct
// styles per 50-round chain versus NCT — the mechanism behind the
// paper's CT < NCT diversity finding.
func (s *Suite) AblationStickiness() (string, error) {
	ydChallenges := 4
	var rows [][]string
	for _, st := range []float64{0.01, 0.25, 0.5, 0.75, 0.95} {
		model := gpt.NewModel(gpt.Config{
			Seed: s.scale.Seed * 77, NumStyles: s.scale.NumStyles, Stickiness: st,
		})
		nctDistinct, ctDistinct := 0, 0
		for i := 0; i < ydChallenges; i++ {
			src, _ := model.Generate(chalProg(i))
			nct, err := model.NCT(src, 20, nil)
			if err != nil {
				return "", err
			}
			ct, err := model.CT(src, 20, nil)
			if err != nil {
				return "", err
			}
			nctDistinct += distinctStyles(nct)
			ctDistinct += distinctStyles(ct)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", st),
			fmt.Sprintf("%.1f", float64(nctDistinct)/float64(ydChallenges)),
			fmt.Sprintf("%.1f", float64(ctDistinct)/float64(ydChallenges)),
		})
	}
	return renderTable(
		"Ablation: CT style stickiness (20 rounds, distinct styles per chain)",
		[]string{"Stickiness", "NCT distinct", "CT distinct"},
		rows, "high stickiness reproduces the paper's CT << NCT diversity"), nil
}

// AblationClassifier compares the random forest against the kNN
// baseline for oracle-style attribution (grouped challenge-fold CV),
// an ablation of the paper's classifier choice.
func (s *Suite) AblationClassifier() (string, error) {
	yd, err := s.Year(2017)
	if err != nil {
		return "", err
	}
	vecs, err := attrib.ExtractAll(yd.Human, attrib.Config{})
	if err != nil {
		return "", err
	}
	feats := make([]stylometry.Features, len(vecs))
	for i, sp := range vecs {
		feats[i] = sp.Features()
	}
	authors := yd.Human.Authors()
	sort.Strings(authors)
	index := make(map[string]int, len(authors))
	for i, a := range authors {
		index[a] = i
	}
	vec := stylometry.NewVectorizer(feats, stylometry.VectorizerConfig{MinDocFreq: 2})
	d := &ml.Dataset{NumClasses: len(authors)}
	d.X = make([][]float64, len(feats))
	d.Y = make([]int, len(feats))
	d.Groups = make([]int, len(feats))
	for i, f := range feats {
		d.X[i] = vec.Vector(f)
		d.Y[i] = index[yd.Human.Samples[i].Author]
		d.Groups[i] = challengeIndex(yd.Human.Samples[i].Challenge)
	}
	reduced, _ := ml.ReduceByInformationGain(d, s.scale.TopFeatures, 10)
	reduced.Groups = d.Groups
	folds, err := ml.GroupKFold(reduced.Groups)
	if err != nil {
		return "", err
	}

	// Random forest.
	rfResults, err := ml.CrossValidateForest(reduced, folds, ml.ForestConfig{
		NumTrees: s.scale.Trees, Seed: s.scale.Seed,
	})
	if err != nil {
		return "", err
	}

	// kNN at several k.
	var rows [][]string
	rows = append(rows, []string{"random forest", pct(ml.MeanAccuracy(rfResults))})
	for _, k := range []int{1, 3, 5} {
		sum := 0.0
		for _, fold := range folds {
			train := reduced.Subset(fold.Train)
			knn, err := ml.FitKNN(train, k)
			if err != nil {
				return "", err
			}
			testX := make([][]float64, len(fold.Test))
			truth := make([]int, len(fold.Test))
			for i, j := range fold.Test {
				testX[i] = reduced.X[j]
				truth[i] = reduced.Y[j]
			}
			sum += ml.Accuracy(knn.PredictAll(testX), truth)
		}
		rows = append(rows, []string{fmt.Sprintf("kNN (k=%d)", k), pct(sum / float64(len(folds)))})
	}
	return renderTable(
		"Ablation: classifier family (oracle grouped CV, GCJ 2017)",
		[]string{"Classifier", "Accuracy"},
		rows, "the paper (via Caliskan-Islam) uses random forests"), nil
}

// AblationForestSize sweeps the random-forest size for the oracle.
func (s *Suite) AblationForestSize() (string, error) {
	yd, err := s.Year(2017)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for _, trees := range []int{5, 10, 25, 50, 100} {
		cfg := s.attribConfig()
		cfg.Trees = trees
		acc, err := attrib.SelfAccuracy(yd.Human, cfg)
		if err != nil {
			return "", err
		}
		rows = append(rows, []string{itos(trees), pct(acc)})
	}
	return renderTable(
		"Ablation: random-forest size (oracle grouped CV, GCJ 2017)",
		[]string{"Trees", "Accuracy"},
		rows, ""), nil
}

// AblationFeatureSelection sweeps the information-gain selection
// budget.
func (s *Suite) AblationFeatureSelection() (string, error) {
	yd, err := s.Year(2017)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for _, k := range []int{25, 100, 300, 700, 1500} {
		cfg := s.attribConfig()
		cfg.TopFeatures = k
		acc, err := attrib.SelfAccuracy(yd.Human, cfg)
		if err != nil {
			return "", err
		}
		rows = append(rows, []string{itos(k), pct(acc)})
	}
	return renderTable(
		"Ablation: information-gain feature budget (oracle grouped CV, GCJ 2017)",
		[]string{"TopFeatures", "Accuracy"},
		rows, ""), nil
}

func distinctStyles(rs []gpt.Result) int {
	set := map[int]bool{}
	for _, r := range rs {
		set[r.StyleIndex] = true
	}
	return len(set)
}

// challengeIndex maps "C1".."C8" to a fold-group id.
func challengeIndex(id string) int {
	if len(id) >= 2 && id[0] == 'C' {
		n := 0
		for _, r := range id[1:] {
			if r < '0' || r > '9' {
				return 0
			}
			n = n*10 + int(r-'0')
		}
		return n
	}
	return 0
}

// chalProg returns the i-th 2017 challenge program (helper for
// ablations that need a few distinct programs without a Suite year).
func chalProg(i int) *ir.Program {
	chs := challenge.ByYear(2017)
	return chs[i%len(chs)].Prog
}

// Ablations lists the available ablation runners by name.
func (s *Suite) Ablations() map[string]func() (string, error) {
	return map[string]func() (string, error){
		"features":   s.AblationFeatureFamilies,
		"repertoire": s.AblationRepertoire,
		"stickiness": s.AblationStickiness,
		"trees":      s.AblationForestSize,
		"selection":  s.AblationFeatureSelection,
		"classifier": s.AblationClassifier,
	}
}

// AblationNames lists ablation names in stable order.
func (s *Suite) AblationNames() []string {
	names := make([]string, 0)
	for n := range s.Ablations() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
