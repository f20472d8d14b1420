# Constructor aliases kept for benchmarks/e2e/probes.py, this module's
# only importer; everything else constructs AVTable / Store directly.
from repro.core.av_table import AVTable as make_av_table
from repro.db.storage import Store as make_store
