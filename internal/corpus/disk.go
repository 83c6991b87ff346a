package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Save writes the corpus in a GCJ-like layout:
//
//	root/gcj<year>/<author>/<challenge>[_<setting>_<round>].cc
//
// Transformed samples encode their setting and round in the filename,
// so the layout carries full provenance.
func Save(c *Corpus, root string) error {
	for i, s := range c.Samples {
		dir := filepath.Join(root, fmt.Sprintf("gcj%d", s.Year), sanitize(s.Author))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("corpus: mkdir: %w", err)
		}
		name := s.Challenge
		if s.Setting != SettingNone {
			name += "_" + settingSlug(s.Setting) + "_" + fmt.Sprintf("%03d", s.Round)
		}
		path := filepath.Join(dir, name+".cc")
		if err := os.WriteFile(path, []byte(s.Source), 0o644); err != nil {
			return fmt.Errorf("corpus: write sample %d: %w", i, err)
		}
	}
	return nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

func settingSlug(s Setting) string {
	switch s {
	case SettingGPTNCT:
		return "gptN"
	case SettingGPTCT:
		return "gptC"
	case SettingHumNCT:
		return "humN"
	case SettingHumCT:
		return "humC"
	default:
		return "none"
	}
}
