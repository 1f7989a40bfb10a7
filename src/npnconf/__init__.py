"""Conformance checking between nested Petri nets and event logs of
multi-agent systems, both by direct replay on the whole model and by
checking each projected log against its component."""

from .colored import (ArcExpr, Binding, BindingError, ColoredMarking,
                      ColoredNet, Const, Domain, ExprSyntaxError, Var,
                      eval_arc_expr, fire_colored, is_run_colored,
                      parse_arc_expr)
from .conformance import (ConformanceReport, ReplayLimits, TraceResult,
                          TraceVerdict, check_both, check_compositional,
                          check_monolithic, fits_agent, fits_system)
from .events import (AgentEvent, Event, EventLog, LogParseError, SyncEvent,
                     SyntacticReport, SystemEvent, Trace,
                     log_syntactically_correct, parse_log, serialize_log,
                     syntactically_correct)
from .model_io import (ModelFormatError, ModelValidationError, dumps_model,
                       load_model, loads_model)
from .multiset import Multiset, MultisetUnderflow
from .nested import (ElementStep, NestedNet, NetToken, NpMarking, RosterError,
                     Step, SyncStep, SystemStep, apply_step, check_agreement,
                     check_conservative, enabled_steps, is_run_np,
                     validate_nested_net)
from .nets import (Marking, NetStructureError, NotEnabledError, PetriNet,
                   ReplayResult, SearchLimitExceeded, WorkflowNet,
                   enabled_transitions, fire, is_run_wf,
                   validate_workflow_net)
from .projection import (ComponentLogs, SystemComponent, project_log,
                         project_marking_agent, project_marking_system,
                         project_system_net, project_trace_agent,
                         project_trace_agents, project_trace_system)
from .simulate import (GenerationError, NoiseSpec, SimulationConfig,
                       generate_log, perturb_log, simulate_run)

__version__ = "0.1.0"
