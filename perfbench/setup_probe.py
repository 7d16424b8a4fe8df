"""Set-up probe: a fresh interpreter imports tableqa and builds a
PipelineContext plus the simulated client, then exits.  `run.py` times this
whole process to report `setup_s`.

    python3 perfbench/setup_probe.py SRC_DIR SCRIPT_JSON
"""

import os
import sys

sys.path.insert(0, sys.argv[1])
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from simllm import SimLLM  # noqa: E402
from tableqa.pipeline import PipelineContext  # noqa: E402

PipelineContext(llm=SimLLM.from_file(sys.argv[2]))
