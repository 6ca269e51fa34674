// Bench pins: exported names that only bench/ (a separate module)
// compiles against. No program in this module may use them
// (TestBenchPinsHaveNoProgramCaller): the server decodes a session
// body with runspec.Decode. ROADMAP item 1a deletes this file when
// bench/ calls runspec.Decode itself.

package service

import "github.com/sjtucitlab/gfs/internal/runspec"

// DecodeRunSpec parses, defaults and validates a JSON run spec body as
// POST /v1/sessions does. Bench pin (ROADMAP item 1a).
func DecodeRunSpec(data []byte) (runspec.Spec, error) { return runspec.Decode(data) }
