package minicc

// MaxClassTemplates exposes the per-program class-template cap to the
// external tests.
const MaxClassTemplates = maxClassTemplates
