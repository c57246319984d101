package experiments

import (
	"fmt"

	"pask/internal/cacheimg"
	"pask/internal/core"
)

// BuildCacheImage runs one recorded PaSK cold start and seals the recorded
// load profile plus its code objects into a distributable cache image
// (DESIGN.md §14). The returned WarmupRun carries the recording arm's
// report — its TTFI is the "one node pays the cold discovery" cost the
// image amortizes across the fleet.
func (ms *ModelSetup) BuildCacheImage() (*cacheimg.Image, *WarmupRun, error) {
	wr, err := ms.RunSchemeOn(ms.NewProcess(), core.SchemePaSK, core.Options{}, nil, nil, true)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: record profile for image: %w", err)
	}
	img, err := cacheimg.Build(wr.Profile, ms.Store)
	if err != nil {
		return nil, nil, err
	}
	return img, wr, nil
}
