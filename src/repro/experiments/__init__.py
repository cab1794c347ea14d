"""Experiment harness regenerating every table and figure of the paper."""

from .harness import (
    PreparedCircuit,
    PrepCache,
    Timer,
    clear_prep_cache,
    format_table,
    prep_cache_info,
    prep_stats,
    prepare_locked,
    technique_params,
)
from .prepstore import (
    PrepStore,
    clear_prep_store,
    configure_prep_store,
    prep_store,
    prep_store_info,
)
from .tables import TABLE1_CIRCUITS, TABLE2_TECHNIQUES
from .campaign import (
    ARTIFACTS,
    BACKENDS,
    CampaignError,
    CampaignResult,
    CampaignSpec,
    aggregate_campaign,
    campaign_status,
    expand_cells,
    retry_campaign,
    run_campaign,
    write_reports,
)
from .queue import CellQueue, QueueConfig, QueueCorruption
from .records import make_cell_record, validate_cell_record
from .worker import default_worker_id, worker_loop

__all__ = [
    "PreparedCircuit",
    "PrepCache",
    "Timer",
    "format_table",
    "prepare_locked",
    "technique_params",
    "prep_cache_info",
    "clear_prep_cache",
    "prep_stats",
    "PrepStore",
    "prep_store",
    "prep_store_info",
    "configure_prep_store",
    "clear_prep_store",
    "TABLE1_CIRCUITS",
    "TABLE2_TECHNIQUES",
    "ARTIFACTS",
    "BACKENDS",
    "CampaignError",
    "CampaignResult",
    "CampaignSpec",
    "aggregate_campaign",
    "campaign_status",
    "expand_cells",
    "retry_campaign",
    "run_campaign",
    "write_reports",
    "CellQueue",
    "QueueConfig",
    "QueueCorruption",
    "make_cell_record",
    "validate_cell_record",
    "default_worker_id",
    "worker_loop",
]
