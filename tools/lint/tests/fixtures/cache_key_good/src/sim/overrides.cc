// Fixture: study knobs, each with its reason.
const Knob knobs[] = {
    {"mixes", "uint",
     FieldRule().unkeyed("each run is keyed by its own MixSpec")},
    {"workers", "uint",
     FieldRule().atMost(1024).unkeyed("parallelism only")},
};
