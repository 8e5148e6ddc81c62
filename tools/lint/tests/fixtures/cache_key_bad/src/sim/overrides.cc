// Fixture: a study knob without a reason.
const Knob knobs[] = {
    {"mixes", "uint", FieldRule(),
     "each run is keyed by its own MixSpec"},
    {"mystery", "uint", FieldRule()},
};
