package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gptattr/internal/corpus"
	"gptattr/internal/serve"
	"gptattr/internal/stylometry"
)

// parityPost posts one source to an inference endpoint and returns the
// status, the X-Degrade-Level header and the body.
func parityPost(client *http.Client, base, endpoint, src string) (int, string, []byte, error) {
	body, err := json.Marshal(serve.AttributeRequest{Source: src})
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := client.Post(base+"/v1/"+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get(serve.DegradeHeader), rb, err
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffAttribute reports the first difference between two attribution
// answers, comparing every float by bit pattern.
func diffAttribute(got, want serve.AttributeResponse) error {
	if got.Author != want.Author || got.DegradeLevel != want.DegradeLevel ||
		got.ModelGeneration != want.ModelGeneration ||
		!sameBits(got.Confidence, want.Confidence) || !sameBits(got.Calibration, want.Calibration) ||
		len(got.Proba) != len(want.Proba) {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	for author, p := range want.Proba {
		if q, ok := got.Proba[author]; !ok || !sameBits(p, q) {
			return fmt.Errorf("proba[%s] = %v, want %v (bit-identical)", author, q, p)
		}
	}
	return nil
}

// diffDetect reports a difference between two detector answers,
// comparing floats by bit pattern.
func diffDetect(got, want serve.DetectResponse) error {
	if got.ChatGPT != want.ChatGPT || got.DegradeLevel != want.DegradeLevel ||
		got.ModelGeneration != want.ModelGeneration ||
		!sameBits(got.Confidence, want.Confidence) || !sameBits(got.Calibration, want.Calibration) {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

// TestAnswerParityThroughRouter pins that the router hop adds no drift:
// for every fixture source, human and ChatGPT-transformed, the answer
// from /v1/attribute and /v1/detect through a Router-backed server
// equals the direct replica answer and the offline answer
// (Oracle.Proba and Classifier.IsChatGPT, the calls attr and gptdetect
// make, with calibration) — same author or verdict, same degrade level and model
// generation, bit-identical proba and confidence after the JSON round
// trips. The router's body is the replica's, byte for byte.
func TestAnswerParityThroughRouter(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and runs a replica fleet")
	}
	reps := []*e2eReplica{startE2EReplica(t, "p1"), startE2EReplica(t, "p2")}
	client := &http.Client{}
	handles := make([]*Replica, len(reps))
	for i, r := range reps {
		handles[i] = NewReplica(r.name, r.url(), client)
	}
	rt, err := New(Config{Replicas: handles, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Backend: rt, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(srv.Handler())
	defer router.Close()

	reg, err := serve.NewRegistry(reps[0].dir)
	if err != nil {
		t.Fatal(err)
	}
	models := reg.Current()
	oracle, _ := models.OracleFor(stylometry.DegradeNone)
	detector, _ := models.DetectorFor(stylometry.DegradeNone)

	var sources []string
	for _, c := range []*corpus.Corpus{fixHuman, fixGPT} {
		for _, s := range c.Samples {
			sources = append(sources, s.Source)
		}
	}
	for i, src := range sources {
		proba, best, err := oracle.Proba(src)
		if err != nil {
			t.Fatalf("source %d: offline attribution: %v", i, err)
		}
		conf := proba[best]
		if c := oracle.Calibration(); c > 0 {
			conf *= c
		}
		wantAttr := serve.AttributeResponse{Author: best, Proba: proba, Confidence: conf,
			Calibration: oracle.Calibration(), ModelGeneration: models.Generation}
		verdict, dconf, err := detector.IsChatGPT(src)
		if err != nil {
			t.Fatalf("source %d: offline detection: %v", i, err)
		}
		wantDet := serve.DetectResponse{ChatGPT: verdict, Confidence: dconf,
			Calibration: detector.Calibration(), ModelGeneration: models.Generation}

		for _, ep := range []string{"attribute", "detect"} {
			var routed []byte // the router's answer, compared byte for byte with the replica's
			for _, target := range []struct{ name, url string }{
				{"router", router.URL}, {"replica " + reps[i%2].name, reps[i%2].url()},
			} {
				tag := fmt.Sprintf("source %d %s via %s", i, ep, target.name)
				status, header, body, err := parityPost(client, target.url, ep, src)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if status != http.StatusOK || header != "0" {
					t.Fatalf("%s: status %d, %s %q: %s", tag, status, serve.DegradeHeader, header, body)
				}
				if routed == nil {
					routed = body
				} else if !bytes.Equal(body, routed) {
					t.Errorf("%s: body %s differs from the router's %s", tag, body, routed)
				}
				if ep == "attribute" {
					var got serve.AttributeResponse
					if err := json.Unmarshal(body, &got); err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if err := diffAttribute(got, wantAttr); err != nil {
						t.Errorf("%s differs from offline: %v", tag, err)
					}
					continue
				}
				var got serve.DetectResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if err := diffDetect(got, wantDet); err != nil {
					t.Errorf("%s differs from offline: %v", tag, err)
				}
			}
		}
	}
}
