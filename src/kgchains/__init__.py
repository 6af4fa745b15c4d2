"""kgchains: multi-chain multi-hop rule learning for knowledge-graph completion."""

from .benchmark import BenchmarkSpec, make_benchmark
from .chains import extract_task
from .errors import DataError, KgchainsError, NumericError, UsageError
from .evaluate import run_mode
from .game import TrainConfig
from .graph import load_task, load_triples

__version__ = "0.1.0"
