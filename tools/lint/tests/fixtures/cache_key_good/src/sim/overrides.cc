// Fixture: study knobs, each with its reason.
const Knob knobs[] = {
    {"mixes", "uint", FieldRule(),
     "each run is keyed by its own MixSpec"},
    {"workers", "uint", FieldRule().atMost(1024), "parallelism only"},
};
