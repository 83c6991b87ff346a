package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Load reads a corpus previously written by Save: the oracle for
// Save's round trip.
func Load(root string) (*Corpus, error) {
	out := &Corpus{}
	yearDirs, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("corpus: read root: %w", err)
	}
	sort.Slice(yearDirs, func(i, j int) bool { return yearDirs[i].Name() < yearDirs[j].Name() })
	for _, yd := range yearDirs {
		if !yd.IsDir() || !strings.HasPrefix(yd.Name(), "gcj") {
			continue
		}
		year, err := strconv.Atoi(strings.TrimPrefix(yd.Name(), "gcj"))
		if err != nil {
			continue
		}
		authorDirs, err := os.ReadDir(filepath.Join(root, yd.Name()))
		if err != nil {
			return nil, err
		}
		sort.Slice(authorDirs, func(i, j int) bool { return authorDirs[i].Name() < authorDirs[j].Name() })
		for _, ad := range authorDirs {
			if !ad.IsDir() {
				continue
			}
			files, err := os.ReadDir(filepath.Join(root, yd.Name(), ad.Name()))
			if err != nil {
				return nil, err
			}
			sort.Slice(files, func(i, j int) bool { return files[i].Name() < files[j].Name() })
			for _, f := range files {
				if f.IsDir() || !strings.HasSuffix(f.Name(), ".cc") {
					continue
				}
				data, err := os.ReadFile(filepath.Join(root, yd.Name(), ad.Name(), f.Name()))
				if err != nil {
					return nil, err
				}
				s := Sample{
					Source: string(data),
					Author: ad.Name(),
					Year:   year,
					Origin: OriginHuman,
				}
				base := strings.TrimSuffix(f.Name(), ".cc")
				parts := strings.Split(base, "_")
				s.Challenge = parts[0]
				if len(parts) == 3 {
					s.Setting = settingFromSlug(parts[1])
					s.Origin = OriginGPTTransformed
					if r, err := strconv.Atoi(parts[2]); err == nil {
						s.Round = r
					}
				}
				out.Samples = append(out.Samples, s)
			}
		}
	}
	return out, nil
}

// settingFromSlug inverts settingSlug.
func settingFromSlug(s string) Setting {
	switch s {
	case "gptN":
		return SettingGPTNCT
	case "gptC":
		return SettingGPTCT
	case "humN":
		return SettingHumNCT
	case "humC":
		return SettingHumCT
	default:
		return SettingNone
	}
}

func TestSaveSanitizesAuthorNames(t *testing.T) {
	dir := t.TempDir()
	c := &Corpus{Samples: []Sample{{
		Source:    "int main() { return 0; }",
		Author:    "we/ird name!",
		Year:      2017,
		Challenge: "C1",
		Origin:    OriginHuman,
	}}}
	if err := Save(c, dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "gcj2017"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("author dirs = %d, want 1", len(entries))
	}
	name := entries[0].Name()
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
		default:
			t.Errorf("unsanitized rune %q in %q", r, name)
		}
	}
}

func TestSettingSlugRoundTrip(t *testing.T) {
	for _, s := range Settings() {
		if got := settingFromSlug(settingSlug(s)); got != s {
			t.Errorf("slug round trip %q -> %q", s, got)
		}
	}
	if settingFromSlug("bogus") != SettingNone {
		t.Error("bogus slug not mapped to none")
	}
}

func TestLoadIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	adir := filepath.Join(dir, "gcj2019", "A001")
	if err := os.MkdirAll(adir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(adir, "C1.cc"), []byte("int main(){return 0;}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(adir, "README.txt"), []byte("not code"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "unrelated"), 0o755); err != nil {
		t.Fatal(err)
	}
	c, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(c.Samples) != 1 {
		t.Fatalf("samples = %d, want 1 (foreign files ignored)", len(c.Samples))
	}
	if c.Samples[0].Year != 2019 || c.Samples[0].Challenge != "C1" {
		t.Errorf("provenance wrong: %+v", c.Samples[0])
	}
}
