# Script mode (cmake -P): run a binary that must refuse its arguments with
# a teaching error — exit code 2 and the message on stderr — instead of
# aborting on an uncaught exception.
#
# Inputs: -DPROGRAM=<binary>  -DARGS=<space-separated arguments>
#         -DEXPECT=<regex the binary's stderr must match>

if(NOT DEFINED PROGRAM OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "ExpectUsageError.cmake needs -DPROGRAM and -DEXPECT")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE code
  OUTPUT_QUIET
  ERROR_VARIABLE err)

if(NOT code STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got '${code}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
