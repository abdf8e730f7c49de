"""Toolkit for segmenting annotated spoken-discourse transcripts with a
focus-space stack, measuring unfilled pauses in audio, coding speech
fragments, and regenerating the correlation statistics of the source study.
"""

__version__ = "0.1.0"

#: Each re-exported name and submodule, and the submodule that defines it.
#: ``import pausecue`` loads none of them: ``__getattr__`` imports a
#: submodule when one of its names is first used, so a command pays only
#: for the modules it runs.
_HOMES = {name: module for module, names in {
    "classifier": "ClassifierConfig Classification EvidenceItem classify extract_evidence "
                  "segment_discourse",
    "focus": "EmptyStackError FocusingOperation FocusSpace FocusStack LinguisticTree "
             "MalformedOperation OpKind UnderflowError apply build_tree segments_affected",
    "fragments": "AnnotatedToken CodedRecord EmptyTranscript LengthMismatch MisalignedPause "
                 "SpeechFragment code fragmentize",
    "lexicon": "CueContext CueEntry CueJudgment Lexicon MissingAnnotation bundled_lexicon "
               "judge_cue_use load_lexicon",
    "pauses": "AudioFrameSeries PauseConfig PauseRecord UnsupportedFormat detect_pauses "
              "frame_energy read_wav round_tenth",
    "stats": "AnovaResult CorrResult GroupedMeans StatsReport TTestResult ZeroVariance "
             "anova_one_way compute_report pearson table_distributions t_test_pooled",
}.items() for name in (module, *names.split())}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_HOMES[name]}")
    value = module if name == _HOMES[name] else getattr(module, name)
    globals()[name] = value
    return value
