package serve

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"gptattr/internal/fault"
	"gptattr/internal/stylometry"
)

// TestServeDegradesNeverDrops is the serving half of the chaos
// contract: under a seeded storm of admission faults and extraction
// faults, every one of N concurrent requests receives an HTTP answer
// from the degradation set {200, 429, 503, 504} — none hangs, none is
// dropped, and an extraction that exhausts its retries is never
// answered as a rejected source — and the server returns to full
// health the moment the storm lifts. Three seeds vary which requests
// the faults land on.
func TestServeDegradesNeverDrops(t *testing.T) {
	defer fault.Disable()
	for _, seed := range []int64{31, 32, 33} {
		ts, _, _, _ := newTestServer(t, BatchConfig{
			QueueDepth: 8, Workers: 1,
		})
		src := sampleSource(t, 0)

		fault.Enable(seed)
		fault.Set(PointAdmit, fault.Policy{Kind: fault.KindError, Prob: 0.2})
		fault.Set(stylometry.PointExtract, fault.Policy{Kind: fault.KindError, Prob: 0.3})

		const requests = 48
		statuses := make(chan int, requests)
		var wg sync.WaitGroup
		for i := 0; i < requests; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, body, err := tryPostJSON(ts.URL+"/v1/attribute", AttributeRequest{Source: src})
				if err != nil {
					t.Errorf("seed %d: transport error (dropped request): %v", seed, err)
					statuses <- -1
					return
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests,
					http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				default:
					t.Errorf("seed %d: status %d outside the degradation set: %s", seed, resp.StatusCode, body)
				}
				if resp.Header.Get("X-Request-Id") == "" {
					t.Errorf("seed %d: degraded response lost its request ID", seed)
				}
				statuses <- resp.StatusCode
			}()
		}
		wg.Wait()
		counts := map[int]int{}
		answered := 0
		for i := 0; i < requests; i++ {
			counts[<-statuses]++
			answered++
		}
		if answered != requests {
			t.Fatalf("seed %d: %d of %d requests answered", seed, answered, requests)
		}
		fault.Disable()

		// Storm over: the next request must succeed outright.
		resp, body := postJSON(t, ts.URL+"/v1/attribute", AttributeRequest{Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: server did not recover after storm: %d %s", seed, resp.StatusCode, body)
		}
		var ar AttributeResponse
		if err := json.Unmarshal(body, &ar); err != nil || ar.Author == "" {
			t.Fatalf("seed %d: post-storm answer unusable: %v %s", seed, err, body)
		}
		t.Logf("seed %d: all %d answered, status counts %v", seed, requests, counts)
	}
}
