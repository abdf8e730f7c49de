"""Toolkit for segmenting annotated spoken-discourse transcripts with a
focus-space stack, measuring unfilled pauses in audio, coding speech
fragments, and regenerating the correlation statistics of the source study.
"""

from .classifier import (ClassifierConfig, Classification, EvidenceItem,
                         classify, extract_evidence, segment_discourse)
from .focus import (EmptyStackError, FocusingOperation, FocusSpace, FocusStack,
                    LinguisticTree, MalformedOperation, OpKind, UnderflowError,
                    apply, build_tree, segments_affected)
from .fragments import (AnnotatedToken, CodedRecord, EmptyTranscript,
                        LengthMismatch, MisalignedPause, SpeechFragment,
                        code, fragmentize)
from .lexicon import (CueContext, CueEntry, CueJudgment, Lexicon,
                      MissingAnnotation, bundled_lexicon, judge_cue_use,
                      load_lexicon)
from .pauses import (AudioFrameSeries, PauseConfig, PauseRecord,
                     UnsupportedFormat, detect_pauses, frame_energy,
                     read_wav, round_tenth)
from .stats import (AnovaResult, CorrResult, GroupedMeans, StatsReport,
                    TTestResult, ZeroVariance, anova_one_way, compute_report,
                    pearson, table_distributions, t_test_pooled)

__version__ = "0.1.0"
